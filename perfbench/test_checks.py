"""Tests of the benchmark's own checker: corrupted outputs must count as failed.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py

Each test runs one real pass of a workload through the harness with one
task's output corrupted, and asserts that exactly that task is counted in
``failed``; the uncorrupted pass must count none.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

GX, MODS, LIB = run.import_library()
ONE_PASS = 1e-9


class Corrupting:
    """A workload whose first task matching ``pick`` has its output passed
    through ``corrupt`` before the real workload checks it."""

    def __init__(self, inner, pick, corrupt):
        self.inner, self.pick, self.corrupt = inner, pick, corrupt

    def tasks(self, p):
        tasks = self.inner.tasks(p)
        task = next(t for t in tasks if self.pick(t.label))
        task.fn = lambda fn=task.fn: self.corrupt(fn)
        return tasks

    def check(self, p, tasks, outputs):
        return self.inner.check(p, tasks, outputs)


def _workload(name, seed=3):
    w = workloads.WORKLOADS[name](seed, GX, LIB, run.ROOT)
    run.OUT.mkdir(exist_ok=True)
    w.setup()
    return w


def _failed(workload, pick=None, corrupt=None):
    if pick is not None:
        workload = Corrupting(workload, pick, corrupt)
    return run.measure(workload, ONE_PASS).failed


def _perturbed_report(fn):
    report = fn()
    return dataclasses.replace(report, value=report.value * (1.0 + 1e-6))


def _understated_error(fn):
    """A value within the relative tolerance whose error exceeds the reported one."""
    report = fn()
    return dataclasses.replace(report, value=report.value * (1.0 + 1e-12), quadrature_error=0.0)


def _converged_instead(fn):
    try:
        fn()
    except GX.DivergenceError:
        return GX.MeasureReport(-1.0, (), 0.0)
    raise AssertionError("the probe was expected to diverge")


def _flipped_verdict(fn):
    reports = list(fn())
    reports[0] = dataclasses.replace(reports[0], passed=not reports[0].passed)
    return reports


@pytest.fixture(scope="module")
def analytic():
    return _workload("analytic")


def test_analytic_pass_is_clean(analytic):
    assert _failed(analytic) == 0


@pytest.mark.parametrize(
    "pick, corrupt",
    [
        (lambda label: label.startswith("exp_minrssu n=3 "), _perturbed_report),
        (lambda label: label.startswith("uniform_maxrssu n=2 "), _understated_error),
        (lambda label: label == "expm1_exp1.01_power1_residual", _perturbed_report),
        (lambda label: label == "exp1_const_past_single", _converged_instead),
        (lambda label: label == "theorem_suite", _flipped_verdict),
    ],
    ids=["registry value", "registry error bound", "probe value", "divergence verdict", "theorem verdict"],
)
def test_analytic_corruption_counts(analytic, pick, corrupt):
    assert _failed(analytic, pick, corrupt) == 1


def _shifted_stream(fn):
    raw, step, kernel = fn()
    return np.nextafter(raw, np.inf), step, kernel


def _shifted_kernel(fn):
    raw, step, kernel = fn()
    return raw, step, kernel * (1.0 + 1e-7)


def test_mc_study_corruption_counts():
    w = _workload("mc_study")
    assert _failed(w) == 0
    first = lambda label: True  # noqa: E731
    assert _failed(w, first, _shifted_stream) == 1
    assert _failed(w, first, _shifted_kernel) == 1


def test_large_n_corruption_counts():
    w = _workload("large_n")
    assert _failed(w, lambda label: label == "kernel.epanechnikov.1000", lambda fn: fn() * (1.0 + 1e-7)) == 1


def _changed_csv_byte(fn):
    code, stdout = fn()
    last = stdout.rstrip()[-1:]
    return code, stdout.rstrip()[:-1] + (b"1" if last != b"1" else b"2") + b"\n"


def _changed_json_field(fn):
    code, stdout = fn()
    payload = json.loads(stdout)
    payload["value"] = payload["value"] * (1.0 + 1e-9)
    return code, json.dumps(payload).encode()


def _flipped_cli_verdict(fn):
    code, stdout = fn()
    records = json.loads(stdout)
    records[-1]["passed"] = not records[-1]["passed"]
    return code, json.dumps(records).encode()


def test_cli_cold_corruption_counts():
    w = _workload("cli_cold")
    assert _failed(w) == 0
    assert _failed(w, lambda label: label == "simulate", _changed_csv_byte) == 1
    assert _failed(w, lambda label: label == "converge", _changed_csv_byte) == 1
    assert _failed(w, lambda label: label == "measure", _changed_json_field) == 1
    assert _failed(w, lambda label: label == "verify", _flipped_cli_verdict) == 1


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(101)]) == (90.0, 90.0, 10)
    assert run.tail([float(i) for i in range(50)])[1:] == (75.0, 13)
    assert run.tail([float(i) for i in range(2001)]) == (1980.0, 99.0, 20)
    assert run.tail([1.0, 2.0, 3.0])[:2] == (2.0, 50.0)


def test_bounds_within_contract():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
