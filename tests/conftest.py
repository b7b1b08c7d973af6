"""Session fixtures shared by module tests and the acceptance gate.

The consistency ladder and the 100k-replicate sampler pools are the two
expensive computations in the suite; each is built once per session and
its wall time recorded so the runtime budgets can be asserted.
"""

import re
import time

import numpy as np
import pytest

import gwextropy as gx
from gwextropy import measures
from gwextropy.errors import DivergenceError
from gwextropy.measures import measure_report

_LADDER_SIZES = (100, 1000, 10000)
_LADDER_SEEDS = 50
_POOL_REPLICATES = 100_000


@pytest.fixture(scope="session")
def consistency_ladder():
    """Median relative error of the step estimator on uniform SRS samples.

    Returns sizes, per-variant median relative errors against the exact
    values (past -1/8, residual -1/24), and the elapsed wall time.
    """
    truth = {gx.PAST: -1.0 / 8.0, gx.RESIDUAL: -1.0 / 24.0}
    cfgs = {v: gx.EstimatorConfig(v, m=1.0) for v in truth}
    d = gx.uniform()
    start = time.perf_counter()
    medians = {v: [] for v in truth}
    for size in _LADDER_SIZES:
        errs = {v: [] for v in truth}
        for r in range(_LADDER_SEEDS):
            sample = gx.draw_design(d, gx.SRS, size, gx.derive_seed(1905, r))
            for v in truth:
                est = gx.estimate(sample, cfgs[v])
                errs[v].append(abs(est - truth[v]) / abs(truth[v]))
        for v in truth:
            medians[v].append(float(np.median(errs[v])))
    elapsed = time.perf_counter() - start
    return {
        "sizes": _LADDER_SIZES,
        "seeds": _LADDER_SEEDS,
        "median_rel_err": medians,
        "truth": truth,
        "elapsed": elapsed,
    }


def _pool(design, base_seed):
    rows = np.empty((_POOL_REPLICATES, 3))
    for r, sample in enumerate(
        gx.replicate(gx.uniform(), design, 3, base_seed, _POOL_REPLICATES)
    ):
        rows[r] = sample.raw_order
    return rows


@pytest.fixture(scope="session")
def rssu_pools():
    """100k uniform replicates of each extreme design at n=3.

    Row r holds (Z_1, Z_2, Z_3) resp. (Y_1, Y_2, Y_3) of replicate r.
    """
    start = time.perf_counter()
    pools = {
        gx.MIN_RSSU: _pool(gx.MIN_RSSU, 7),
        gx.MAX_RSSU: _pool(gx.MAX_RSSU, 11),
    }
    pools["elapsed"] = time.perf_counter() - start
    return pools


def ks_distance(sample, cdf):
    """Kolmogorov distance between an empirical sample and a CDF."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    f = cdf(x)
    upper = np.max(np.abs(np.arange(1, n + 1) / n - f))
    lower = np.max(np.abs(np.arange(0, n) / n - f))
    return float(max(upper, lower))


def outcome(evaluate):
    """A report's value, error and factor results, or the fields of its DivergenceError."""
    try:
        r = evaluate()
    except DivergenceError as e:
        return ("diverges", str(e), e.variant, e.factor_index, e.error_estimate)
    factors = tuple((f.value, f.abs_error_estimate, f.subdivisions) for f in r.factor_results)
    return (r.value, r.quadrature_error, factors)


def fresh_outcome(d, w, spec):
    """The outcome of spec from a fresh sequence whose factor integrands read
    no node map: the oracle for shared sequences and node maps."""
    make = measures.make_integrand
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "make_integrand", lambda d, w, kind, nodes=None: make(d, w, kind))
        return outcome(lambda: measure_report(d, w, spec))


# ---------------------------------------------------------------------------
# acceptance summary: one PASS/FAIL line per numbered check

_CRITERIA = {
    1: "closed-form reproduction",
    2: "product-constant exponent adjudication",
    3: "design dominance over SRS",
    4: "monotonicity in design size",
    5: "ordering comparisons, exponential pair",
    6: "transform inequalities",
    7: "estimator hand values",
    8: "estimator consistency ladder",
    9: "sampler fidelity and reproducibility",
}
_ACCEPT_PATTERN = re.compile(r"test_acceptance\.py::test_c(\d+)")
_outcomes = {}


def pytest_runtest_logreport(report):
    match = _ACCEPT_PATTERN.search(report.nodeid)
    if match is None:
        return
    key = int(match.group(1))
    previous = _outcomes.get(key, True)
    _outcomes[key] = previous and not report.failed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.write_sep("-", "acceptance summary")
    for key in sorted(_CRITERIA):
        if key not in _outcomes:
            continue
        status = "PASS" if _outcomes[key] else "FAIL"
        terminalreporter.write_line(f"criterion {key} ({_CRITERIA[key]}): {status}")
