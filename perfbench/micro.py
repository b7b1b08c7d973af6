"""Per-layer micro-timings, taken with tracing off in the traced run.

Each workload times the layers it stresses: analytic the quadrature,
measures and orders calls, mc_study small draws, large_n the big draws
and the estimators, cli_cold package import and the warm handlers.
Integrand-evaluation counts are taken on a separate, untimed call. Times
are raw medians of several calls.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np

from tracer import Tracer


def median_time(fn, reps: int, scale: float) -> float:
    """Median time of ``fn`` over ``reps`` calls, times ``scale``."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * scale


def count_evals(mods, lib, fn) -> int:
    tr = Tracer(keep=0)
    tr.install(mods, lib)
    try:
        fn()
    finally:
        tr.restore()
    return tr.totals["measures.integrand"][0] if "measures.integrand" in tr.totals else 0


REPORT_SPECS = {
    "exp_minrssu_n3": ("exp:1", 2.0, "residual", "minRSSU", 3),
    "uniform_maxrssu_n5": ("uniform:0,1", 2.0, "past", "maxRSSU", 5),
    "powersurv_minrssu_n4": ("powersurv:1.5", 2.0, "residual", "minRSSU", 4),
    "uniform_srs_m0.5": ("uniform:0,1", 0.5, "past", "SRS", 2),
}


def analytic(gx, mods, lib) -> dict:
    out = {}
    integrand = gx.make_integrand(gx.exponential(1.0), gx.power_weight(2.0), gx.IntegrandKind("Phi_i", 3))
    integrate = lambda: gx.integrate_unit_interval(integrand)  # noqa: E731
    out["quadrature.factor_integral_us"] = median_time(integrate, 100, 1e6)
    out["quadrature.factor_integral_evals"] = count_evals(
        mods, lib, lambda: mods.measures.integrate_unit_interval(integrand))
    for name, (dist, m, variant, design, n) in REPORT_SPECS.items():
        d, w = gx.parse_distribution(dist), gx.power_weight(m)
        spec = gx.MeasureSpec(variant, design, n)
        call = lambda: lib.measure_report(d, w, spec)  # noqa: E731
        out[f"measures.report_ms.{name}"] = median_time(call, 20, 1e3)
        out[f"measures.report_evals.{name}"] = count_evals(mods, lib, call)
    out["orders.suite_ms"] = median_time(lib.run_theorem_suite, 5, 1e3)
    dX, dY = gx.exponential(1.0), gx.exponential(0.5)
    for kind in ("disp", "convex_transform", "star", "superadditive", "st"):
        out[f"orders.check_order_us.{kind}"] = median_time(lambda: gx.check_order(kind, dX, dY), 100, 1e6)
    return out


def mc_study(gx, mods, lib) -> dict:
    d = gx.exponential(1.0)
    out = {}
    for design in ("SRS", "minRSSU", "maxRSSU"):
        seeds = iter(range(10**6))
        out[f"sampling.draw_us_n20.{design.lower()}"] = median_time(
            lambda: lib.draw_design(d, design, 20, next(seeds)), 300, 1e6)
    return out


def large_n(gx, mods, lib) -> dict:
    d = gx.exponential(1.0)
    out = {"sampling.draw_1e6_ms": median_time(lambda: lib.draw_design(d, "SRS", 10**6, 7), 3, 1e3)}
    sample = lib.draw_design(d, "SRS", 10**6, 11)
    step = gx.EstimatorConfig("residual", 1.0, "step")
    out["estimators.step_1e6_ms"] = median_time(lambda: lib.step_estimate(sample, step), 3, 1e3)
    rng = np.random.default_rng(13)
    for kernel, short in (("gaussian", "gauss"), ("epanechnikov", "epan")):
        cfg = gx.EstimatorConfig("past", 1.0, "kernel", kernel)
        for n, tag in ((1_000, "1k"), (5_000, "5k")):
            x = rng.exponential(1.0, size=n)
            out[f"estimators.kernel_{short}_{tag}_ms"] = median_time(lambda: lib.kernel_estimate(x, cfg), 3, 1e3)
    return out


_IMPORTS = {
    "gwextropy": "cli.import_ms",
    "numpy": "cli.import_numpy_ms",
    "scipy.integrate": "cli.import_scipy_integrate_ms",
    "scipy.special": "cli.import_scipy_special_ms",
}


def import_times(env: dict, reps: int = 3) -> dict:
    """Cumulative import times from ``python -X importtime``, median of fresh
    processes."""
    samples = {metric: [] for metric in _IMPORTS.values()}
    line = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$")
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gwextropy.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        seen = {}
        for row in proc.stderr.splitlines():
            match = line.match(row)
            if match and match.group(2).strip() in _IMPORTS:
                seen[_IMPORTS[match.group(2).strip()]] = int(match.group(1)) / 1e3
        for metric, value in seen.items():
            samples[metric].append(value)
    return {metric: statistics.median(v) if v else 0.0 for metric, v in samples.items()}


def cli_cold(gx, mods, lib, workload) -> dict:
    out = import_times(workload.env)
    with tempfile.TemporaryDirectory(dir=workload.root / ".perfbench_out") as tmp:
        target = os.path.join(tmp, "out")
        for name, argv in workload.argv.items():
            out[f"cli.handler_ms.{name}"] = median_time(lambda: lib.run_command([*argv, "--out", target]), 3, 1e3)
    return out


def run(workload, gx, mods, lib) -> dict:
    if workload.name == "cli_cold":
        return cli_cold(gx, mods, lib, workload)
    return {"analytic": analytic, "mc_study": mc_study, "large_n": large_n}[workload.name](gx, mods, lib)
