"""Measure evaluation: closed-value anchors, design products, divergence policy."""

import math
from itertools import product

import pytest
from numpy.testing import assert_allclose

import gwextropy as gx
from gwextropy.errors import DivergenceError, DomainError
from gwextropy.measures import (
    MAX_RSSU,
    MIN_RSSU,
    PAST,
    PLAIN,
    RESIDUAL,
    SINGLE,
    SRS,
    MeasureSpec,
    closed_form,
    gw_cumulative,
    gw_design_measure,
    gwj,
    measure_report,
)


def test_gwj_anchors():
    assert_allclose(gwj(gx.uniform(), gx.constant_weight(1.0)), -0.5, rtol=1e-10)
    assert_allclose(gwj(gx.uniform(), gx.power_weight(1.0)), -0.25, rtol=1e-10)
    assert_allclose(gwj(gx.exponential(1.0), gx.constant_weight(1.0)), -0.25, rtol=1e-10)


def test_single_variable_anchors():
    w = gx.power_weight(1.0)
    assert_allclose(gw_cumulative(gx.uniform(), w, PAST), -1 / 8, rtol=1e-10)
    assert_allclose(gw_cumulative(gx.uniform(), w, RESIDUAL), -1 / 24, rtol=1e-10)
    assert_allclose(gw_cumulative(gx.power_survival(2.0), w, RESIDUAL), -1 / 60, rtol=1e-9)


def test_unweighted_reduction():
    # constant weight recovers the unweighted cumulative measures
    w = gx.constant_weight(1.0)
    assert_allclose(gw_cumulative(gx.uniform(), w, RESIDUAL), -1 / 6, rtol=1e-10)
    assert_allclose(gw_cumulative(gx.uniform(), w, PAST), -1 / 6, rtol=1e-10)


def test_srs_n1_reduces_exactly():
    dists = [gx.uniform(), gx.uniform(1.0, 3.0), gx.power_survival(2.0)]
    weights = [gx.power_weight(1.0), gx.exp_decay_weight(1.0), gx.constant_weight(0.5)]
    for d, w, variant in product(dists, weights, (PAST, RESIDUAL)):
        single = gw_cumulative(d, w, variant)
        srs1 = gw_design_measure(d, w, MeasureSpec(variant, SRS, 1))
        assert single == srs1


def test_srs_power_law():
    # SRS design value is the single value pushed through v -> -((−2v)^n)/2
    d, w = gx.uniform(), gx.power_weight(2.0)
    single = gw_cumulative(d, w, PAST)
    for n in (2, 3, 4):
        got = gw_design_measure(d, w, MeasureSpec(PAST, SRS, n))
        assert_allclose(got, -0.5 * (-2.0 * single) ** n, rtol=1e-9)


def test_design_anchors():
    w = gx.power_weight(1.0)
    u = gx.uniform()
    assert_allclose(gw_design_measure(u, w, MeasureSpec(PAST, SRS, 2)), -1 / 32, rtol=1e-9)
    assert_allclose(gw_design_measure(u, w, MeasureSpec(PAST, MAX_RSSU, 2)), -1 / 48, rtol=1e-9)
    assert_allclose(gw_design_measure(u, w, MeasureSpec(RESIDUAL, MIN_RSSU, 2)), -1 / 720, rtol=1e-9)
    assert_allclose(
        gw_design_measure(gx.exponential(1.0), w, MeasureSpec(RESIDUAL, MIN_RSSU, 2)),
        -1 / 128,
        rtol=1e-8,
    )


def test_exponential_min_design_follows_product_formula():
    # the product formula gives -1/32 at rate 2, n=1, linear weight; both the
    # quadrature route and the registry must agree with it
    d, w = gx.exponential(2.0), gx.power_weight(1.0)
    spec = MeasureSpec(RESIDUAL, MIN_RSSU, 1)
    assert_allclose(gw_design_measure(d, w, spec), -1 / 32, rtol=1e-8)
    assert_allclose(closed_form(d, w, spec), -1 / 32, rtol=1e-12)


def test_registry_matches_quadrature():
    w1, w2 = gx.power_weight(1.0), gx.power_weight(2.0)
    cells = [
        (gx.uniform(), w1, MeasureSpec(PAST, SRS, 2)),
        (gx.uniform(), w2, MeasureSpec(RESIDUAL, SRS, 3)),
        (gx.uniform(), w1, MeasureSpec(PAST, MAX_RSSU, 3)),
        (gx.uniform(), w2, MeasureSpec(RESIDUAL, MIN_RSSU, 2)),
        (gx.exponential(0.5), w1, MeasureSpec(RESIDUAL, MIN_RSSU, 3)),
        (gx.power_survival(2.0), w2, MeasureSpec(RESIDUAL, MIN_RSSU, 2)),
    ]
    for d, w, spec in cells:
        registered = closed_form(d, w, spec)
        assert registered is not None
        assert_allclose(gw_design_measure(d, w, spec), registered, rtol=1e-8)


def test_registry_scope():
    w = gx.power_weight(1.0)
    # no closed form registered: non-power weight, shifted uniform, past minRSSU companion
    assert closed_form(gx.uniform(), gx.exp_decay_weight(1.0), MeasureSpec(PAST, SRS, 1)) is None
    assert closed_form(gx.uniform(1.0, 2.0), w, MeasureSpec(PAST, SRS, 1)) is None
    assert closed_form(gx.exponential(1.0), w, MeasureSpec(PAST, MAX_RSSU, 2)) is None
    # single normalizes to the SRS n=1 entry
    single = closed_form(gx.uniform(), w, MeasureSpec(PAST, SINGLE, 1))
    assert single == pytest.approx(-1 / 8)


def test_nonpositivity():
    dists = [gx.uniform(), gx.uniform(0.5, 2.0), gx.exponential(1.0), gx.power_survival(2.0)]
    safe_w = gx.exp_decay_weight(0.7)
    specs = [
        MeasureSpec(PAST, SRS, 2),
        MeasureSpec(PAST, MAX_RSSU, 3),
        MeasureSpec(RESIDUAL, SRS, 2),
        MeasureSpec(RESIDUAL, MIN_RSSU, 3),
    ]
    for d, spec in product(dists, specs):
        assert gw_design_measure(d, safe_w, spec) <= 0.0
    for d in dists:
        assert gwj(d, safe_w) <= 0.0


def test_factor_diagnostics():
    report = measure_report(
        gx.uniform(), gx.power_weight(1.0), MeasureSpec(RESIDUAL, MIN_RSSU, 3)
    )
    assert len(report.factor_results) == 3
    assert all(f.abs_error_estimate >= 0.0 for f in report.factor_results)
    # factors are the raw expectations, positive and shrinking in i
    values = [f.value for f in report.factor_results]
    assert all(v > 0 for v in values)
    assert values == sorted(values, reverse=True)
    assert report.quadrature_error >= 0.0


def test_past_power_unbounded_support_diverges():
    d, w = gx.exponential(1.0), gx.power_weight(1.0)
    with pytest.raises(DivergenceError):
        gw_cumulative(d, w, PAST)
    with pytest.raises(DivergenceError) as excinfo:
        gw_design_measure(d, w, MeasureSpec(PAST, MAX_RSSU, 2))
    assert excinfo.value.variant == PAST


def test_unbounded_density_diverges():
    with pytest.raises(DivergenceError):
        gwj(gx.power_survival(0.5), gx.constant_weight(1.0))


def test_spec_validation():
    with pytest.raises(DomainError):
        MeasureSpec(PAST, MIN_RSSU, 2)
    with pytest.raises(DomainError):
        MeasureSpec(RESIDUAL, MAX_RSSU, 2)
    with pytest.raises(DomainError):
        MeasureSpec(PAST, SINGLE, 2)
    with pytest.raises(DomainError):
        MeasureSpec(PLAIN, SRS, 2)
    with pytest.raises(DomainError):
        MeasureSpec(PAST, SRS, 0)
    with pytest.raises(DomainError):
        MeasureSpec("sideways", SRS, 1)


def test_plain_variant_is_gwj():
    d, w = gx.uniform(), gx.power_weight(1.0)
    report = measure_report(d, w, MeasureSpec(PLAIN, SINGLE, 1))
    assert_allclose(report.value, gwj(d, w), rtol=1e-12)


def test_transformed_distribution_measures():
    # Y = e^U - 1 on [0, e-1]: bounded support, so the past variant converges
    y = gx.transform(gx.uniform(), gx.EXP_MINUS_ONE)
    w = gx.power_weight(1.0)
    got = gw_cumulative(y, w, PAST)
    # u-space oracle: -1/2 int u^2 (e^{2u} - e^u) du, antiderivatives by parts
    exact = -0.5 * (0.25 * math.e**2 - math.e + 7 / 4)
    assert_allclose(got, exact, rtol=1e-8)


def test_wrappers_return_the_report_value():
    w = gx.power_weight(1.0)
    for d in (gx.uniform(), gx.power_survival(2.0), gx.exponential(0.5)):
        assert gwj(d, w) == measure_report(d, w, MeasureSpec(PLAIN)).value
        assert gw_cumulative(d, w, RESIDUAL) == measure_report(d, w, MeasureSpec(RESIDUAL)).value
        for spec in (MeasureSpec(RESIDUAL, SRS, 3), MeasureSpec(RESIDUAL, MIN_RSSU, 3)):
            assert gw_design_measure(d, w, spec) == measure_report(d, w, spec).value
    with pytest.raises(DomainError):
        gw_cumulative(gx.uniform(), w, PLAIN)


@pytest.mark.parametrize(
    "m, b", [(1.114908283726553, 0.6300532526610241), (1.0002102221354776, 2.669103623686228)]
)
def test_quadrature_error_bounds_registry_error(m, b):
    # smooth powersurv factors on which the adaptive error estimate alone undershoots
    d, w, spec = gx.power_survival(b), gx.power_weight(m), MeasureSpec(RESIDUAL, MIN_RSSU, 1)
    report = measure_report(d, w, spec)
    assert abs(report.value - closed_form(d, w, spec)) <= report.quadrature_error
