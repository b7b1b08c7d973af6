"""The four benchmark workloads.

Each workload makes its inputs from the seed, hands the harness one pass of
timed tasks at a time, and checks every output of a pass once the pass is
over, so the checks never sit inside a timed interval. One caller drives
every workload in one process (cli_cold: one child process at a time).

* analytic: measure_report over the closed-form registry, fixed probes off
  the registry (divergence table included) and one theorem-suite pass.
  Quadrature, measures, weights and orders do the work.
* mc_study: a bias/MSE study, design x n x replicates, each replicate a
  draw plus a step and a Gaussian kernel estimate. Per-call overhead in
  sampling and estimators dominates.
* large_n: few, large inputs (an SRS draw at n = 1e6 with its step
  estimate, dense kernel estimates at n = 1e3 and 5e3), where array
  throughput and memory dominate.
* cli_cold: every subcommand in a fresh process; the only workload that
  pays for interpreter start and package import.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import reference as ref

# Per-factor relative tolerance of the library's quadrature; an n-factor
# product may carry n times that.
FACTOR_REL_TOL = 1e-8
STEP_REL_TOL = 1e-10
KERNEL_REL_TOL = 1e-9


@dataclass
class Task:
    """One timed call. ``is_op`` tasks enter the latency statistics; the others
    (a theorem-suite pass) only count toward pass wall time and checks."""

    label: str
    fn: object
    expect: tuple = ()
    is_op: bool = True


class Workload:
    name = ""

    def __init__(self, seed: int, gx, lib, root: Path):
        self.seed = int(seed)
        self.gx = gx
        self.lib = lib
        self.root = root
        self.tracer = None
        self.failures: list[str] = []

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def fail(self, message: str) -> bool:
        if len(self.failures) < 20:
            self.failures.append(message)
        return False

    def setup(self) -> None:
        """Make inputs and warm up; everything here counts toward setup_s."""

    def tasks(self, p: int) -> list[Task]:
        raise NotImplementedError

    def check(self, p: int, tasks: list[Task], outputs: list) -> list[bool]:
        raise NotImplementedError


def _stratified(rng: np.random.Generator, lo: float, hi: float, k: int) -> np.ndarray:
    """k draws from [lo, hi], one in each of k equal strata, in random order,
    so every pass covers the whole range."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


def _value_check(w: Workload, label: str, report, expected: float, n: int) -> bool:
    if isinstance(report, BaseException):
        return w.fail(f"{label}: raised {report!r}")
    err = abs(report.value - expected)
    rel = ref.rel_error(report.value, expected)
    if not (rel <= n * FACTOR_REL_TOL and err <= report.quadrature_error):
        return w.fail(f"{label}: value {report.value!r} vs {expected!r} "
                      f"(error {err:.3e}, reported {report.quadrature_error:.3e}, rel {rel:.3e})")
    return True


class Analytic(Workload):
    name = "analytic"
    PER_CASE = 10  # n = 1..10 for each registry case, every pass

    def setup(self) -> None:
        gx = self.gx
        self.suite_table = ref.theorem_table()
        S = gx.MeasureSpec
        e1 = gx.exponential(1.0)
        self.probes = [
            ("exp1_const_past_single", e1, gx.constant_weight(1.0), S("past", "single", 1), None, 1),
            ("exp1_const_past_max3", e1, gx.constant_weight(1.0), S("past", "maxRSSU", 3), None, 3),
            *(
                (f"exp1_expdecay{a:g}_past_single", e1, gx.exp_decay_weight(a), S("past", "single", 1),
                 ref.exp_expdecay_maxrssu(1.0, a, 1), 1)
                for a in (0.5, 0.999, 1.001)
            ),
            ("exp1_expdecay0.5_past_max3", e1, gx.exp_decay_weight(0.5), S("past", "maxRSSU", 3),
             ref.exp_expdecay_maxrssu(1.0, 0.5, 3), 3),
            ("uniform02_const2_past_srs2", gx.uniform(0.0, 2.0), gx.constant_weight(2.0), S("past", "SRS", 2),
             ref.uniform_const_srs(2.0, 2.0, 2), 2),
            ("exp2_const1_residual_min3", gx.exponential(2.0), gx.constant_weight(1.0),
             S("residual", "minRSSU", 3), ref.exp_const_minrssu(2.0, 1.0, 3), 3),
            ("expm1_exp1_power1_residual", gx.parse_distribution("transform:exp_minus_one(exp:1)"),
             gx.power_weight(1.0), S("residual", "single", 1), None, 1),
            ("expm1_exp1.01_power1_residual", gx.parse_distribution("transform:exp_minus_one(exp:1.01)"),
             gx.power_weight(1.0), S("residual", "single", 1), ref.expm1_of_exp_residual(1.01), 1),
        ]
        self.lib.measure_report(gx.uniform(), gx.power_weight(1.0), S("past", "maxRSSU", 2))

    def tasks(self, p: int) -> list[Task]:
        gx, S, k = self.gx, self.gx.MeasureSpec, self.PER_CASE
        rng = self.rng(1, p)
        ns = range(1, k + 1)
        unif = gx.uniform(0.0, 1.0)
        out = []
        for case in ("uniform_srs_past", "uniform_srs_residual", "uniform_maxrssu", "uniform_minrssu",
                     "exp_minrssu", "powersurv_minrssu"):
            ms = _stratified(rng, 0.25, 4.0, k)
            shapes = _stratified(rng, 0.5, 3.0, k)
            for n, m, s in zip(ns, ms, shapes):
                m, s = float(m), float(s)
                if case == "uniform_srs_past":
                    args, cf = (unif, S("past", "SRS", n)), ref.uniform_srs(m, n, "past")
                elif case == "uniform_srs_residual":
                    args, cf = (unif, S("residual", "SRS", n)), ref.uniform_srs(m, n, "residual")
                elif case == "uniform_maxrssu":
                    args, cf = (unif, S("past", "maxRSSU", n)), ref.uniform_maxrssu(m, n)
                elif case == "uniform_minrssu":
                    args, cf = (unif, S("residual", "minRSSU", n)), ref.uniform_minrssu(m, n)
                elif case == "exp_minrssu":
                    args, cf = (gx.exponential(s), S("residual", "minRSSU", n)), ref.exp_minrssu(s, m, n)
                else:
                    args, cf = (gx.power_survival(s), S("residual", "minRSSU", n)), ref.powersurv_minrssu(s, m, n)
                d, spec = args
                label = f"{case} n={n} m={m!r} shape={s!r}"
                out.append(Task(label, partial(self.lib.measure_report, d, gx.power_weight(m), spec), (cf, n)))
        for label, d, w, spec, expected, n in self.probes:
            out.append(Task(label, partial(self.lib.measure_report, d, w, spec), (expected, n)))
        out.append(Task("theorem_suite", self.lib.run_theorem_suite, (), is_op=False))
        return out

    def check(self, p, tasks, outputs):
        oks = []
        for task, out in zip(tasks, outputs):
            if task.label == "theorem_suite":
                oks.append(self.check_suite(out))
            elif task.expect[0] is None:
                ok = isinstance(out, self.gx.DivergenceError)
                oks.append(ok or self.fail(f"{task.label}: expected DivergenceError, got {out!r}"))
            else:
                oks.append(_value_check(self, task.label, out, *task.expect))
        return oks

    def check_suite(self, reports) -> bool:
        if isinstance(reports, BaseException):
            return self.fail(f"theorem suite raised {reports!r}")
        rows = [[r.theorem_id, r.subject, r.passed, r.inconclusive] for r in reports]
        gated = sum(r.gated_failure for r in reports)
        if len(rows) != 68 or gated or rows != self.suite_table:
            return self.fail(f"theorem suite: {len(rows)} reports, {gated} gated failures, "
                             f"table match {rows == self.suite_table}")
        return True


class McStudy(Workload):
    name = "mc_study"
    REPLICATES = 300  # per cell and pass
    SIZES = (10, 20, 50)
    DESIGNS = ("SRS", "minRSSU", "maxRSSU")

    def setup(self) -> None:
        gx = self.gx
        rng = self.rng(2)
        self.b = float(rng.uniform(0.5, 3.0))
        self.m = float(rng.uniform(0.5, 3.0))
        self.base = int(rng.integers(0, 2**63))
        self.dist = gx.power_survival(self.b)
        self.quantile = ref.powersurv_quantile(self.b)
        w = gx.power_weight(self.m)
        self.cells = []
        for design in self.DESIGNS:
            variant = "residual" if design == "minRSSU" else "past"
            truth = self.lib.measure_report(self.dist, w, gx.MeasureSpec(variant, "single", 1)).value
            expected = ref.powersurv_single(self.b, self.m, variant)
            if not ref.rel_error(truth, expected) <= FACTOR_REL_TOL:
                raise RuntimeError(f"mc_study truth {truth!r} vs closed form {expected!r}")
            for n in self.SIZES:
                self.cells.append((design, n, variant, truth,
                                   gx.EstimatorConfig(variant, self.m, "step"),
                                   gx.EstimatorConfig(variant, self.m, "kernel", "gaussian")))
        self.errors = {f"{c[0]} n={c[1]}": [0, 0.0, 0.0, 0.0, 0.0] for c in self.cells}
        self._replicate(self.cells[0], 0, 1)[0]()

    def _replicate(self, cell, cell_base: int, count: int) -> list:
        design, n, _, _, step_cfg, kernel_cfg = cell
        lib = self.lib
        samples = lib.replicate(self.dist, design, n, cell_base, count)

        def one():
            s = next(samples)
            return s.raw_order, lib.step_estimate(s, step_cfg), lib.kernel_estimate(s, kernel_cfg)

        return [one] * count

    def cell_base(self, p: int, ci: int) -> int:
        return ref.replicate_key(self.base, p * len(self.cells) + ci)

    def tasks(self, p):
        out = []
        for ci, cell in enumerate(self.cells):
            label = f"{cell[0]} n={cell[1]}"
            for r, fn in enumerate(self._replicate(cell, self.cell_base(p, ci), self.REPLICATES)):
                out.append(Task(label, fn, (ci, r)))
        return out

    def check(self, p, tasks, outputs):
        oks = [True] * len(tasks)
        by_cell: dict[int, list[int]] = {}
        for j, task in enumerate(tasks):
            if isinstance(outputs[j], BaseException):
                oks[j] = self.fail(f"{task.label} r={task.expect[1]}: raised {outputs[j]!r}")
            else:
                by_cell.setdefault(task.expect[0], []).append(j)
        for ci, idx in by_cell.items():
            design, n, variant, truth, *_ = self.cells[ci]
            base = self.cell_base(p, ci)
            raw = np.array([outputs[j][0] for j in idx])
            want = np.array([ref.sample_raw(self.quantile, design, n, ref.replicate_key(base, tasks[j].expect[1]))
                             for j in idx])
            same_stream = np.all(raw.view(np.uint64) == want.view(np.uint64), axis=1)
            x = np.sort(want, axis=1)
            steps = np.array([outputs[j][1] for j in idx])
            kernels = np.array([outputs[j][2] for j in idx])
            step_ok = np.abs(steps - ref.step_estimates(x, self.m, variant)) <= STEP_REL_TOL * np.abs(steps)
            kernel_ref = ref.kernel_estimates(x, self.m, variant, "gaussian")
            kernel_ok = np.abs(kernels - kernel_ref) <= KERNEL_REL_TOL * np.abs(kernel_ref)
            for k, j in enumerate(idx):
                if not (same_stream[k] and step_ok[k] and kernel_ok[k]):
                    oks[j] = self.fail(f"{tasks[j].label} r={tasks[j].expect[1]}: stream {bool(same_stream[k])}, "
                                       f"step {bool(step_ok[k])}, kernel {bool(kernel_ok[k])}")
            acc = self.errors[f"{design} n={n}"]
            acc[0] += len(idx)
            acc[1] += float(np.sum(steps - truth))
            acc[2] += float(np.sum((steps - truth) ** 2))
            acc[3] += float(np.sum(kernels - truth))
            acc[4] += float(np.sum((kernels - truth) ** 2))
        return oks

    def summary(self) -> dict:
        """Bias and MSE of both estimators per cell, against the cell's analytic truth."""
        return {
            cell: {"replicates": c, "step_bias": sb / c, "step_mse": sq / c,
                   "kernel_bias": kb / c, "kernel_mse": kq / c}
            for cell, (c, sb, sq, kb, kq) in self.errors.items() if c
        }


class LargeN(Workload):
    name = "large_n"
    DRAW_N = 1_000_000
    KERNEL_SIZES = (1_000, 5_000)
    KERNELS = ("gaussian", "epanechnikov")

    def setup(self) -> None:
        gx = self.gx
        rng = self.rng(3)
        self.rate = float(rng.uniform(0.5, 3.0))
        self.m = float(rng.uniform(0.5, 3.0))
        self.base = int(rng.integers(0, 2**63))
        self.dist = gx.exponential(self.rate)
        self.step_cfg = gx.EstimatorConfig("residual", self.m, "step")
        self.inputs = {n: np.sort(rng.exponential(1.0 / self.rate, size=n)) for n in self.KERNEL_SIZES}
        self.kernel_cfgs = {k: gx.EstimatorConfig("past", self.m, "kernel", k) for k in self.KERNELS}
        self.kernel_refs: dict = {}
        warm = self.rng(4).exponential(1.0, size=200)
        for cfg in self.kernel_cfgs.values():
            self.lib.kernel_estimate(warm, cfg)
        self._draw_step("SRS", 1, 1000)

    def _draw_step(self, design, key, n=None):
        s = self.lib.draw_design(self.dist, design, n or self.DRAW_N, key)
        return s.raw_order, self.lib.step_estimate(s, self.step_cfg)

    def tasks(self, p):
        # One design at n = 1e6: with all three, the median op fell between
        # the minRSSU and maxRSSU draws, whose costs overlap, and jumped from
        # run to run. mc_study covers every design.
        key = ref.replicate_key(self.base, p)
        out = [Task("draw_step_1e6.SRS", partial(self._draw_step, "SRS", key), ("SRS", key))]
        for kernel, cfg in self.kernel_cfgs.items():
            for n in self.KERNEL_SIZES:
                out.append(Task(f"kernel.{kernel}.{n}", partial(self.lib.kernel_estimate, self.inputs[n], cfg),
                                (kernel, n)))
        return out

    def check(self, p, tasks, outputs):
        oks = []
        for task, out in zip(tasks, outputs):
            if isinstance(out, BaseException):
                oks.append(self.fail(f"{task.label}: raised {out!r}"))
            elif task.label.startswith("draw_step"):
                design, key = task.expect
                want = ref.sample_raw(ref.exp_quantile(self.rate), design, self.DRAW_N, key)
                same = np.array_equal(out[0].view(np.uint64), want.view(np.uint64))
                step_ref = float(ref.step_estimates(np.sort(want), self.m, "residual"))
                step_ok = abs(out[1] - step_ref) <= STEP_REL_TOL * abs(step_ref)
                oks.append((same and step_ok) or self.fail(f"{task.label}: stream {same}, step {step_ok}"))
            else:
                kernel, n = task.expect
                if task.expect not in self.kernel_refs:
                    self.kernel_refs[task.expect] = float(
                        ref.kernel_estimates(self.inputs[n], self.m, "past", kernel)[0])
                want = self.kernel_refs[task.expect]
                ok = abs(out - want) <= KERNEL_REL_TOL * abs(want)
                oks.append(ok or self.fail(f"{task.label}: {out!r} vs reference {want!r}"))
        return oks


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _json_number(x):
    if x is None:
        return None
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return _sig12(x)


class CliCold(Workload):
    name = "cli_cold"
    COMMANDS = ("measure", "simulate", "estimate", "verify", "converge")

    def setup(self) -> None:
        rng = self.rng(5)
        out_dir = self.root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        rate, m, b = (float(f"{v:.4f}") for v in rng.uniform(0.5, 3.0, size=3))
        self.params = {"rate": rate, "m": m, "b": b, "n": int(rng.integers(2, 6)),
                       "sim_n": int(rng.integers(20, 51)), "sim_seed": int(rng.integers(0, 2**31)),
                       "sim_design": ["srs", "minrssu", "maxrssu"][int(rng.integers(0, 3))],
                       "conv_seed": int(rng.integers(0, 2**31))}
        self.observations = np.sort(rng.exponential(1.0 / rate, size=200))
        self.csv = out_dir / f"cli-observations-s{self.seed}.csv"
        self.csv.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in self.observations))
        P = self.params
        self.argv = {
            "measure": ["measure", "--dist", f"exp:{rate}", "--weight", f"power:{m}", "--variant", "residual",
                        "--design", "minrssu", "--n", str(P["n"])],
            "simulate": ["simulate", "--dist", f"powersurv:{b}", "--design", P["sim_design"],
                         "--n", str(P["sim_n"]), "--seed", str(P["sim_seed"])],
            "estimate": ["estimate", "--input", str(self.csv), "--variant", "residual", "--m", str(m),
                         "--style", "kernel", "--kernel", "gaussian"],
            "verify": ["verify"],
            "converge": ["converge", "--dist", "uniform:0,1", "--m", str(m), "--variant", "past",
                         "--design", "maxrssu", "--sizes", "10,20,40", "--seeds", "4",
                         "--seed", str(P["conv_seed"])],
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.root / "src"), env.get("PYTHONPATH")]))
        self.env = env
        self.expected = None
        self.child_peak_kb = 0

    def _invoke(self, argv, trace_file=None):
        """Run one subcommand; its own peak RSS, from wait4, goes into
        child_peak_kb (RUSAGE_CHILDREN would also count the set-up children)."""
        if trace_file is None:
            cmd = [sys.executable, "-m", "gwextropy", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("clitrace.py")), str(trace_file), *argv]
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def tasks(self, p):
        out = []
        for name in self.COMMANDS:
            trace_file = None
            if self.tracer is not None:
                trace_file = self.root / ".perfbench_out" / f"cli-trace-{os.getpid()}-{p}-{name}.json"
            out.append(Task(name, partial(self._invoke, self.argv[name], trace_file), (trace_file,)))
        return out

    def check(self, p, tasks, outputs):
        if self.expected is None:
            self.expected = self.expected_outputs()
        oks = []
        for task, out in zip(tasks, outputs):
            trace_file = task.expect[0]
            if trace_file is not None and trace_file.exists():
                self.tracer.merge(json.loads(trace_file.read_text()))
                trace_file.unlink()
            if isinstance(out, BaseException):
                oks.append(self.fail(f"{task.label}: raised {out!r}"))
                continue
            oks.append(self.compare(task.label, out, self.expected[task.label]))
        return oks

    def compare(self, name: str, out, expected) -> bool:
        code, stdout = out
        if expected is None:
            return self.fail(f"{name}: the in-process library result disagrees with its reference")
        if code != 0:
            return self.fail(f"{name}: exit code {code}")
        if name in ("simulate", "converge"):
            return stdout == expected or self.fail(f"{name}: CSV differs from the in-process result")
        try:
            payload = json.loads(stdout)
        except ValueError:
            return self.fail(f"{name}: output is not JSON")
        if name == "verify":
            if len(payload) != len(expected):
                return self.fail(f"verify: {len(payload)} records, expected {len(expected)}")
            for got, want in zip(payload, expected):
                for key in want:
                    if got.get(key) != want[key]:
                        return self.fail(f"verify: field {key!r} of {want['theorem_id']} {want['subject']}")
            return True
        for key in expected:
            if payload.get(key) != expected[key]:
                return self.fail(f"{name}: field {key!r} is {payload.get(key)!r}, expected {expected[key]!r}")
        return list(payload) == list(expected) or self.fail(f"{name}: fields {list(payload)}")

    def expected_outputs(self) -> dict:
        """The same library calls the subcommands make, in this process, rendered
        the way the command-line front end documents its output; None where
        the in-process result itself fails its independent reference."""
        gx, P = self.gx, self.params
        spec = gx.MeasureSpec("residual", "minRSSU", P["n"])
        d, w = gx.exponential(P["rate"]), gx.power_weight(P["m"])
        report = gx.measure_report(d, w, spec)
        measure = {"value": _sig12(report.value), "closed_form": _sig12(gx.closed_form(d, w, spec)),
                   "quadrature_error": _sig12(report.quadrature_error)}
        if not ref.rel_error(report.value, ref.exp_minrssu(P["rate"], P["m"], P["n"])) <= P["n"] * FACTOR_REL_TOL:
            measure = None

        design = {"srs": "SRS", "minrssu": "minRSSU", "maxrssu": "maxRSSU"}[P["sim_design"]]
        sample = gx.draw_design(gx.power_survival(P["b"]), design, P["sim_n"], P["sim_seed"])
        want = ref.sample_raw(ref.powersurv_quantile(P["b"]), design, P["sim_n"], P["sim_seed"])
        simulate = ("i,value\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(sample.raw_order, 1))).encode()
        if not np.array_equal(sample.raw_order.view(np.uint64), want.view(np.uint64)):
            simulate = None

        cfg = gx.EstimatorConfig("residual", P["m"], "kernel", "gaussian")
        value = gx.kernel_estimate(self.observations, cfg)
        want = float(ref.kernel_estimates(self.observations, P["m"], "residual", "gaussian")[0])
        estimate = {"value": _sig12(value), "config": {
            "variant": "residual", "m": _sig12(P["m"]), "style": "kernel", "include_head": False,
            "observations": int(self.observations.size), "kernel": "gaussian", "bandwidth": "silverman",
            "bandwidth_resolved": _sig12(gx.bandwidth_silverman(self.observations))}}
        if not ref.rel_error(value, want) <= KERNEL_REL_TOL:
            estimate = None

        reports = gx.run_theorem_suite()
        verify = [{"theorem_id": r.theorem_id, "subject": r.subject,
                   "hypotheses_checked": [{"name": h.name, "passed": h.passed, "margin": _json_number(h.margin),
                                           "note": h.note} for h in r.hypotheses_checked],
                   "conclusion_margin": _json_number(r.conclusion_margin), "passed": r.passed,
                   "inconclusive": r.inconclusive, "gated_failure": r.gated_failure, "note": r.note}
                  for r in reports]
        if [[r.theorem_id, r.subject, r.passed, r.inconclusive] for r in reports] != ref.theorem_table():
            verify = None

        unif, m = gx.uniform(0.0, 1.0), P["m"]
        truth = gx.gw_cumulative(unif, gx.power_weight(m), "past")
        step_cfg = gx.EstimatorConfig("past", m, "step")
        rows = []
        for size in (10, 20, 40):
            for r in range(4):
                seed = gx.derive_seed(P["conv_seed"], r)
                est = gx.step_estimate(gx.draw_design(unif, "maxRSSU", size, seed), step_cfg)
                abs_err = abs(est - truth)
                rows.append((size, seed, est, abs_err, abs_err / abs(truth)))
        rows.sort(key=lambda row: (row[0], row[1]))
        converge = "sample_size,design,variant,estimate,truth,abs_err,rel_err,seed\n" + "".join(
            f"{size},maxrssu,past,{est!r},{truth!r},{abs_err!r},{rel_err!r},{seed}\n"
            for size, seed, est, abs_err, rel_err in rows)
        if not ref.rel_error(truth, ref.uniform_srs(m, 1, "past")) <= FACTOR_REL_TOL:
            converge = None
        return {"measure": measure, "simulate": simulate, "estimate": estimate, "verify": verify,
                "converge": converge and converge.encode()}


WORKLOADS = {w.name: w for w in (Analytic, McStudy, LargeN, CliCold)}
