"""Command-line behavior: payload shapes, determinism, and exit codes."""

import contextlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gwextropy as gx
from gwextropy import cli
from gwextropy.cli import _json_number, run_command


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_measure_registry_case(capsys):
    code, payload = run_json(
        capsys,
        ["measure", "--dist", "uniform:0,1", "--weight", "power:1",
         "--variant", "past", "--design", "maxrssu", "--n", "2"],
    )
    assert code == 0
    assert payload["value"] == pytest.approx(-0.0208333, abs=1e-6)
    assert payload["closed_form"] == pytest.approx(payload["value"], rel=1e-8)
    assert payload["quadrature_error"] >= 0.0
    assert list(payload) == ["value", "closed_form", "quadrature_error"]


def test_measure_without_registry_entry(capsys):
    code, payload = run_json(
        capsys,
        ["measure", "--dist", "uniform:0,1", "--weight", "expdecay:1",
         "--variant", "residual"],
    )
    assert code == 0
    assert "closed_form" not in payload
    assert "quadrature_error" in payload


def test_measure_twelve_significant_digits(capsys):
    code, payload = run_json(
        capsys,
        ["measure", "--dist", "uniform:0,1", "--weight", "power:1", "--variant", "past"],
    )
    assert code == 0
    assert payload["value"] == float(f"{-0.125:.12g}")


def test_simulate_csv_and_reproducibility(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["simulate", "--dist", "uniform:0,1", "--design", "minrssu",
            "--n", "4", "--seed", "123", "--out"]
    assert run_command(argv + [str(out1)]) == 0
    assert run_command(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "i,value"
    assert len(lines) == 5
    sample = gx.draw_design(gx.uniform(), gx.MIN_RSSU, 4, 123)
    for row, expected in zip(lines[1:], sample.raw_order):
        i, value = row.split(",")
        assert float(value) == expected
    assert [int(r.split(",")[0]) for r in lines[1:]] == [1, 2, 3, 4]


def test_estimate_two_point_file(tmp_path, capsys):
    path = tmp_path / "two_points.csv"
    path.write_text("1\n2\n")
    code, payload = run_json(
        capsys,
        ["estimate", "--variant", "residual", "--m", "1", "--style", "step",
         "--input", str(path)],
    )
    assert code == 0
    assert payload["value"] == pytest.approx(-0.1875)
    assert payload["config"]["style"] == "step"
    assert payload["config"]["observations"] == 2


def test_estimate_accepts_indexed_rows_and_header(tmp_path, capsys):
    path = tmp_path / "indexed.csv"
    path.write_text("i,value\n1,0.0\n2,1.0\n3,2.0\n")
    code, payload = run_json(
        capsys,
        ["estimate", "--variant", "past", "--m", "1", "--input", str(path)],
    )
    assert code == 0
    assert payload["value"] == pytest.approx(-13 / 36)


def test_estimate_kernel_reports_bandwidth(tmp_path, capsys):
    path = tmp_path / "pts.csv"
    path.write_text("1\n2\n")
    code, payload = run_json(
        capsys,
        ["estimate", "--variant", "past", "--m", "1", "--style", "kernel",
         "--kernel", "gaussian", "--bandwidth", "0.5", "--input", str(path)],
    )
    assert code == 0
    assert payload["value"] == pytest.approx(-0.1875)
    assert payload["config"]["bandwidth_resolved"] == pytest.approx(0.5)


def test_verify_json_structure(tmp_path):
    out = tmp_path / "reports.json"
    assert run_command(["verify", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert records and isinstance(records, list)
    required = {"theorem_id", "subject", "hypotheses_checked",
                "conclusion_margin", "passed", "inconclusive", "note"}
    assert required <= set(records[0])
    # divergent comparisons serialize as strings, not JSON Infinity
    margins = [r["conclusion_margin"] for r in records]
    assert any(m == "inf" for m in margins)
    assert all(isinstance(m, (int, float)) or m in ("inf", "-inf", "nan") for m in margins)


def test_converge_ladder(tmp_path):
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    argv = ["converge", "--dist", "uniform:0,1", "--m", "1", "--variant", "residual",
            "--design", "srs", "--sizes", "200,800", "--seeds", "9",
            "--seed", "7", "--out"]
    assert run_command(argv + [str(out1)]) == 0
    assert run_command(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "sample_size,design,variant,estimate,truth,abs_err,rel_err,seed"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 18
    sizes = [int(r[0]) for r in rows]
    seeds = [int(r[7]) for r in rows]
    assert sorted(zip(sizes, seeds)) == list(zip(sizes, seeds))
    for r in rows:
        estimate, truth, abs_err, rel_err = map(float, r[3:7])
        assert abs_err == abs(estimate - truth)
        assert rel_err == pytest.approx(abs_err / abs(truth), rel=1e-12)
        assert truth == pytest.approx(-1 / 24, rel=1e-8)
        assert r[1] == "srs" and r[2] == "residual"


def test_exit_codes(tmp_path, capsys):
    assert run_command(["nonsense"]) == 2
    assert run_command(["measure", "--dist", "uniform:0,1"]) == 2  # missing flags
    assert run_command(
        ["measure", "--dist", "norm:0,1", "--weight", "power:1", "--variant", "past"]
    ) == 2
    assert run_command(
        ["measure", "--dist", "exp:1", "--weight", "power:1", "--variant", "past"]
    ) == 3  # divergent integral
    path = tmp_path / "pts.csv"
    path.write_text("1\n2\n")
    assert run_command(
        ["estimate", "--variant", "past", "--input", str(path), "--bandwidth", "wide",
         "--style", "kernel"]
    ) == 2
    assert run_command(["estimate", "--variant", "past", "--input", str(tmp_path / "missing.csv")]) == 2
    capsys.readouterr()  # drain usage noise


@pytest.mark.parametrize(
    "dist, variant, design, label",
    [("uniform:-1e308,1e308", "past", "single", "uniform:-1e+308,1e+308"),
     ("exp:5e-324", "residual", "minrssu", "exp:4.94066e-324")],
)
def test_zero_density_is_a_specification_error(capsys, dist, variant, design, label):
    n = "1" if design == "single" else "2"
    expected = contextlib.nullcontext()
    if dist.startswith("exp:"):
        # Q(u) = -log(1-u)/5e-324 overflows in numpy before the zero density is seen
        expected = pytest.warns(RuntimeWarning, match="overflow")
    with expected:
        code = run_command(["measure", "--dist", dist, "--weight", "const:1", "--variant", variant,
                            "--design", design, "--n", n])
    assert code == 2
    assert capsys.readouterr().err == f"error: density f(Q(u)) of {label} is 0.0 at u=0.5; it must be > 0\n"


@pytest.mark.parametrize(
    "argv",
    [["converge", "--dist", "exp:5e-324", "--variant", "residual", "--design", "minrssu", "--sizes", "5",
      "--seeds", "1"],
     ["measure", "--dist", "exp:5e-324", "--weight", "power:1", "--variant", "residual"]],
)
def test_an_overflowing_quantile_is_blamed_on_the_distribution(capsys, argv):
    with np.errstate(over="ignore"):
        assert run_command(argv) == 2
    message = "quantile Q(u) of exp:4.94066e-324 is inf at u=0.5; it must be finite"
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [(["--m", "inf"], "weight exponent m must be finite and > 0, got inf"),
     (["--style", "kernel", "--bandwidth", "inf"], "bandwidth must be finite and positive, got inf"),
     (["--m", "1e308"], "x^(m+1) overflows for m = 1e+308 at the largest observation 3.0")],
)
def test_estimate_rejects_infinite_settings_and_power_overflow(tmp_path, capsys, flags, message):
    path = tmp_path / "obs.csv"
    path.write_text("1\n2\n3\n")
    assert run_command(["estimate", "--input", str(path), "--variant", "past", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_measure_beyond_the_float_range(capsys):
    code, payload = run_json(
        capsys,
        ["measure", "--dist", "uniform:0,1e308", "--weight", "const:1", "--variant", "past",
         "--design", "srs", "--n", "2"],
    )
    assert (code, payload) == (0, {"value": "-inf", "quadrature_error": "inf"})


@pytest.mark.parametrize(
    "dist, weight, n, value",
    [("exp:1e308", "power:1e308", "3", -0.0),
     # the exact value 48/(201^2 202^2 203^2 204 205)/2 is a float; Gamma(201) is not
     ("uniform:0,1", "power:200", "2", -48 / (201**2 * 202**2 * 203**2 * 204 * 205) / 2)],
)
def test_measure_omits_a_closed_form_beyond_the_float_range(capsys, dist, weight, n, value):
    code, payload = run_json(
        capsys,
        ["measure", "--dist", dist, "--weight", weight, "--variant", "residual", "--design", "minrssu", "--n", n],
    )
    assert code == 0 and list(payload) == ["value", "quadrature_error"]
    assert payload["value"] == pytest.approx(value, rel=1e-8, abs=0.0)
    assert abs(payload["value"] - value) <= payload["quadrature_error"]


def test_rejected_measure_combination(capsys):
    code = run_command(
        ["measure", "--dist", "uniform:0,1", "--weight", "power:1",
         "--variant", "past", "--design", "minrssu", "--n", "2"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_converge_rejects_single_design(capsys):
    code = run_command(
        ["converge", "--dist", "uniform:0,1", "--m", "1", "--variant", "residual",
         "--design", "single", "--sizes", "100", "--seeds", "2"]
    )
    assert code == 2
    capsys.readouterr()


def readme_commands():
    """The ``gwextropy ...`` lines of README's command-line block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [
        shlex.split(line)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("gwextropy ")
    ]


def test_readme_commands_run(tmp_path, capsys):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["measure", "simulate", "estimate", "verify", "converge"]
    obs = tmp_path / "obs.csv"
    assert run_command(["simulate", "--dist", "exp:1", "--design", "srs", "--n", "20",
                        "--seed", "1", "--out", str(obs)]) == 0
    for argv in commands:
        argv = [str(obs) if arg == "obs.csv" else arg for arg in argv]
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert run_command(argv) == 0, argv


_IMPORT_GUARD = """
import json
import sys

from gwextropy import estimators
from gwextropy.cli import run_command

csv = sys.argv[1]
commands = [
    ["measure", "--dist", "exp:1", "--weight", "power:1", "--variant", "residual", "--design", "minrssu", "--n", "3"],
    ["verify"],
    ["estimate", "--input", csv, "--variant", "residual", "--style", "kernel", "--kernel", "gaussian"],
    ["simulate", "--dist", "uniform:0,1", "--design", "minrssu", "--n", "4"],
    ["converge", "--dist", "uniform:0,1", "--variant", "past", "--design", "maxrssu", "--sizes", "10,20", "--seeds", "2"],
]
codes = [run_command([*argv, "--out", csv + ".out"]) for argv in commands]
packages = sorted(name for name, module in sys.modules.items()
                  if name.split(".")[0] == "scipy" and hasattr(module, "__path__"))
ufuncs = sys.modules.get("scipy.special._special_ufuncs")
print(json.dumps([codes, packages, estimators._ndtr is getattr(ufuncs, "ndtr", None)]))
"""


def test_commands_never_import_the_scipy_subpackages(tmp_path):
    # QUADPACK and ndtr come from their extension modules, so no scipy
    # subpackage init (most of a command's cold start) may creep back in.
    # QUADPACK's own callback set-up imports scipy and scipy._lib, which are
    # light; a scipy without _special_ufuncs.ndtr imports scipy.special.
    csv = tmp_path / "observations.csv"
    csv.write_text("".join(f"{float(v)!r}\n" for v in np.random.default_rng(3).exponential(size=50)))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(csv)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, packages, ndtr_in_extension = json.loads(proc.stdout)
    assert codes == [0, 0, 0, 0, 0]
    assert "scipy.integrate" not in packages
    if ndtr_in_extension:
        assert set(packages) <= {"scipy", "scipy._lib"}


@pytest.mark.parametrize("flags", [["--design", "srs"], ["--design", "minrssu"],
                                   ["--design", "maxrssu", "--literal-extremes"]])
@pytest.mark.parametrize(
    "dist, label",
    [("uniform:-1e308,1e308", "uniform:-1e+308,1e+308"), ("exp:5e-324", "exp:4.94066e-324"),
     ("exp:1e-310", "exp:1e-310")],
)
def test_simulate_refuses_a_draw_that_is_not_finite(capsys, dist, label, flags):
    with np.errstate(over="ignore"):
        assert run_command(["simulate", "--dist", dist, "--n", "3", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {cli._DESIGNS[flags[1]]} draw from {label} gave inf; every draw must be finite\n"


def test_converge_rejects_a_size_that_is_no_integer(capsys):
    code = run_command(["converge", "--dist", "uniform:0,1", "--variant", "residual", "--sizes", "10,x",
                        "--seeds", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: bad size 'x'\n"


def test_json_numbers_write_nan_as_a_string():
    assert _json_number(math.nan) == "nan"


def test_measure_with_n_beyond_the_float_range(capsys):
    code, payload = run_json(
        capsys,
        ["measure", "--dist", "uniform:0,1", "--weight", "power:1", "--variant", "past",
         "--design", "srs", "--n", str(10**400)],
    )
    # the exact value -0.5 (1/4)^n underflows to -0.0
    assert (code, payload) == (0, {"value": -0.0, "quadrature_error": 0.0})
    assert math.copysign(1.0, payload["value"]) == -1.0


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--dist", "exp:1", "--n", "100000000000000000000"],
     ["converge", "--dist", "exp:1", "--variant", "residual", "--sizes", "100000000000000000000", "--seeds", "1"]],
)
def test_an_unallocatable_sample_size_exits_2(capsys, argv):
    assert run_command(argv) == 2
    message = "sample size 100000000000000000000 is too large: its float64 uniforms exceed numpy's array size limit"
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [(["simulate", "--dist", "uniform:-inf,0", "--n", "3"],
      "bad distribution spec 'uniform:-inf,0': uniform needs finite a < b, got (-inf, 0.0)"),
     (["simulate", "--dist", "uniform:0,inf", "--n", "3"],
      "bad distribution spec 'uniform:0,inf': uniform needs finite a < b, got (0.0, inf)"),
     (["measure", "--dist", "exp:inf", "--weight", "const:1", "--variant", "residual"],
      "bad distribution spec 'exp:inf': exponential needs finite rate > 0, got inf"),
     (["measure", "--dist", "powersurv:inf", "--weight", "const:1", "--variant", "residual"],
      "bad distribution spec 'powersurv:inf': power_survival needs finite b > 0, got inf"),
     (["measure", "--dist", "exp:1", "--weight", "const:inf", "--variant", "residual"],
      "bad weight spec 'const:inf': constant weight needs finite c >= 0, got inf"),
     (["measure", "--dist", "exp:1", "--weight", "const:nan", "--variant", "residual"],
      "bad weight spec 'const:nan': constant weight needs finite c >= 0, got nan"),
     (["measure", "--dist", "exp:1", "--weight", "power:inf", "--variant", "residual"],
      "bad weight spec 'power:inf': power weight needs finite m > 0, got inf"),
     (["measure", "--dist", "exp:1", "--weight", "expdecay:inf", "--variant", "residual"],
      "bad weight spec 'expdecay:inf': exp decay weight needs finite a > 0, got inf")],
)
def test_a_non_finite_family_parameter_is_a_specification_error(capsys, argv, message):
    assert run_command(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "error, message",
    [(MemoryError("Unable to allocate 745. PiB for an array with shape (100000000000000000,) and data type float64"),
      "Unable to allocate 745. PiB for an array with shape (100000000000000000,) and data type float64"),
     (MemoryError(), "out of memory")],
)
def test_a_failed_allocation_exits_2(capsys, monkeypatch, error, message):
    def draw_design(*args):
        raise error

    monkeypatch.setattr(cli, "draw_design", draw_design)
    assert run_command(["simulate", "--dist", "exp:1", "--n", "100000000000000000"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_console_main_exits_with_the_command_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["gwextropy", "simulate", "--dist", "exp:1", "--n", "2", "--seed", "3"])
    with pytest.raises(SystemExit) as info:
        cli.console_main()
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("i,value\n1,")
    monkeypatch.setattr(sys, "argv", ["gwextropy", "simulate", "--dist", "exp:inf", "--n", "2"])
    with pytest.raises(SystemExit) as info:
        cli.console_main()
    assert info.value.code == 2
