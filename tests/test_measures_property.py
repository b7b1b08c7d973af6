"""Property test: node-map reports equal fresh-integrand reports and the closed forms.

Kept apart from test_measures so that without hypothesis installed only this
module fails to collect.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import gwextropy as gx
from gwextropy.measures import MAX_RSSU, MIN_RSSU, PAST, RESIDUAL, SRS, MeasureSpec, closed_form, measure_report

from conftest import fresh_outcome, outcome

_REGISTRY_CASES = {
    "exp": lambda p, n: (gx.exponential(p), MeasureSpec(RESIDUAL, MIN_RSSU, n)),
    "powersurv": lambda p, n: (gx.parse_distribution(f"powersurv:{p!r}"), MeasureSpec(RESIDUAL, MIN_RSSU, n)),
    "uniform_max": lambda p, n: (gx.uniform(), MeasureSpec(PAST, MAX_RSSU, n)),
    "uniform_min": lambda p, n: (gx.uniform(), MeasureSpec(RESIDUAL, MIN_RSSU, n)),
    "uniform_srs_past": lambda p, n: (gx.uniform(), MeasureSpec(PAST, SRS, n)),
    "uniform_srs_residual": lambda p, n: (gx.uniform(), MeasureSpec(RESIDUAL, SRS, n)),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(sorted(_REGISTRY_CASES)),
    m=st.floats(0.25, 4.0),
    p=st.floats(0.5, 3.0),
    n=st.integers(1, 8),
)
def test_shared_node_report_matches_fresh_and_closed_form(case, m, p, n):
    # p is the exponential rate or the power-survival b; uniform ignores it
    d, spec = _REGISTRY_CASES[case](p, n)
    w = gx.power_weight(m)
    report = measure_report(d, w, spec)
    assert outcome(lambda: report) == fresh_outcome(d, w, spec)
    exact = closed_form(d, w, spec)
    assert abs(report.value - exact) <= n * 1e-8 * abs(exact)
