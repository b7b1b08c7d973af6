"""Measure evaluation: closed-value anchors, design products, divergence policy."""

import math
import re
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gwextropy as gx
from gwextropy import measures
from gwextropy.distributions import EXPONENTIAL
from gwextropy.errors import DivergenceError, DomainError, IntegrandError
from gwextropy.measures import (
    MAX_RSSU,
    MIN_RSSU,
    PAST,
    PLAIN,
    RESIDUAL,
    SINGLE,
    SRS,
    MeasureSpec,
    _FactorSequence,
    closed_form,
    gw_cumulative,
    gw_design_measure,
    gwj,
    measure_report,
)

from conftest import fresh_outcome, outcome


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


def test_registry_returns_none_beyond_the_float_range():
    # Gamma(201), Gamma(1e308 + 1) and 171! overflow although the uniform
    # value is a float; (2 * 1e-300)^3 rounds to 0 and would divide by it
    w200 = gx.power_weight(200.0)
    assert closed_form(gx.uniform(), w200, MeasureSpec(RESIDUAL, MIN_RSSU, 2)) is None
    assert closed_form(gx.exponential(1e308), gx.power_weight(1e308), MeasureSpec(RESIDUAL, MIN_RSSU, 3)) is None
    assert closed_form(gx.exponential(1.0), gx.power_weight(1.0), MeasureSpec(RESIDUAL, MIN_RSSU, 171)) is None
    assert closed_form(gx.exponential(1e-300), gx.power_weight(2.0), MeasureSpec(RESIDUAL, MIN_RSSU, 1)) is None
    # Gamma(101) Gamma(3) / Gamma(104) = 2 / (101 * 102 * 103) stays in range
    value = closed_form(gx.uniform(), gx.power_weight(100.0), MeasureSpec(RESIDUAL, MIN_RSSU, 1))
    assert value == pytest.approx(-1.0 / (101 * 102 * 103), rel=1e-13)


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


def test_nonpositive_density_raises_a_domain_error():
    negative = gx.custom(lambda u: u, lambda u: -1.0 + 0.0 * u, 0.0, 1.0, label="negative")
    message = "density f(Q(u)) of negative is -1.0 at u=0.5; it must be > 0"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        measure_report(negative, gx.power_weight(1.0), MeasureSpec(PAST))
    undefined = gx.custom(lambda u: u, lambda u: math.nan + 0.0 * u, 0.0, 1.0)
    with pytest.raises(IntegrandError, match="^integrand returned non-finite value nan at u=0.5$"):
        measure_report(undefined, gx.power_weight(1.0), MeasureSpec(PAST))


def test_values_beyond_the_float_range_read_minus_inf_in_every_design():
    d, w = gx.uniform(0.0, 1e308), gx.constant_weight(1.0)
    for spec in (MeasureSpec(PAST, SRS, 2), MeasureSpec(PAST, MAX_RSSU, 3)):
        report = measure_report(d, w, spec)
        assert (report.value, report.quadrature_error) == (-math.inf, math.inf)


HUGE_N = 10**400  # beyond the float range, so n itself overflows a float


@pytest.mark.parametrize(
    "dist, weight, factor, expected",
    [
        # below 1: -0.5 * (1/4)^n tends to -0.0 with error 0
        ("uniform:0,1", "power:1", 0.25, (-0.0, 0.0)),
        ("uniform:0,1", "const:0", 0.0, (-0.0, 0.0)),
        # exactly 1: the value stays -0.5, and n times the factor's error has no float bound
        ("uniform:0,3", "const:1", 1.0, (-0.5, math.inf)),
        ("uniform:0,30", "const:1", 10.0, (-math.inf, math.inf)),
    ],
)
def test_srs_with_n_beyond_the_float_range_takes_the_ieee_limit(dist, weight, factor, expected):
    report = measure_report(gx.parse_distribution(dist), gx.parse_weight(weight), MeasureSpec(PAST, SRS, HUGE_N))
    assert report.factor_results[0].value == factor
    assert (report.value, report.quadrature_error) == expected
    assert math.copysign(1.0, report.value) == -1.0


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
    with pytest.raises(DomainError, match=r"^unknown design 'sideways'$"):
        MeasureSpec(PAST, "sideways", 1)


def test_plain_variant_has_no_closed_form():
    assert closed_form(gx.uniform(), gx.power_weight(1.0), MeasureSpec(PLAIN)) is None


def test_integrand_kinds_are_the_indexed_factors_and_delta_gwj():
    # Lambda and Delta are Psi_1 and Phi_1, not kinds of their own
    for name in ("Lambda", "Delta"):
        with pytest.raises(DomainError, match=f"^unknown integrand kind '{name}'$"):
            measures.IntegrandKind(name)
    with pytest.raises(DomainError, match="needs order_index >= 1"):
        measures.IntegrandKind(measures.PSI_I)
    with pytest.raises(DomainError, match="takes no order_index"):
        measures.IntegrandKind(measures.DELTA_GWJ, 1)


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
    "m, b, n",
    [
        # smooth factors on which the adaptive error estimate alone undershoots
        (1.114908283726553, 0.6300532526610241, 1),
        (1.0002102221354776, 2.669103623686228, 1),
        # factors far below 1e-2, which an absolute tolerance stopped short
        (400.0, 2.0, 1),
        (400.0, 2.0, 2),
        (400.0, 2.0, 3),
        (400.0, 2.0, 5),
        (60.0, 5.0, 2),
        (60.0, 5.0, 3),
    ],
)
def test_quadrature_error_bounds_registry_error(m, b, n):
    d, w, spec = gx.power_survival(b), gx.power_weight(m), MeasureSpec(RESIDUAL, MIN_RSSU, n)
    report = measure_report(d, w, spec)
    assert abs(report.value - closed_form(d, w, spec)) <= report.quadrature_error


@pytest.mark.parametrize("variant", [PAST, RESIDUAL, PLAIN])
def test_a_factor_short_of_the_relative_tolerance_diverges(variant):
    # the factor of powersurv:5 with power:400 has its mass within about
    # 1e-13 of u = 1, where dqagse's nodes do not reach: what they see is 35
    # to 50 orders of magnitude too small and never meets the relative tolerance
    d, w = gx.power_survival(5.0), gx.power_weight(400.0)
    with pytest.raises(DivergenceError) as excinfo:
        measure_report(d, w, MeasureSpec(variant))
    assert excinfo.value.variant == variant


@pytest.mark.parametrize(
    "dist",
    ["uniform:0,1", "uniform:1,3", "exp:1", "powersurv:2", "transform:exp_minus_one(exp:1.01)",
     "transform:exp_minus_one(uniform:0,1)", "transform:identity(exp:2)"],
)
@pytest.mark.parametrize("weight", ["power:1", "expdecay:0.7", "const:1"])
def test_shared_sequence_matches_fresh_reports(dist, weight):
    # one sequence serves every spec of its variant; the largest RSSU spec
    # comes first so the rest read factors, and nodes, it already evaluated
    d, w = gx.parse_distribution(dist), gx.parse_weight(weight)
    for variant, rssu in ((RESIDUAL, MIN_RSSU), (PAST, MAX_RSSU), (PLAIN, None)):
        specs = [MeasureSpec(PLAIN)]
        if rssu is not None:
            specs = [MeasureSpec(variant, rssu, n) for n in range(6, 0, -1)]
            specs += [MeasureSpec(variant, SINGLE)] + [MeasureSpec(variant, SRS, n) for n in range(1, 7)]
        shared = _FactorSequence(d, w, variant)
        for spec in specs:
            assert outcome(lambda: shared.report(spec)) == fresh_outcome(d, w, spec)
        assert_one_node_pairs(shared)


def assert_one_node_pairs(sequence):
    """Every pair in the sequence's node map is the pair the integrand computes for that node alone."""
    d, w = sequence.d, sequence.w
    for u, pair in sequence.nodes.items():
        assert pair == (gx.eval_weight(w, d.quantile(u)), float(d.pdf_at_quantile(u))), u


@pytest.mark.parametrize("weight", ["const:1", "power:1"])
def test_shared_sequence_raises_the_fresh_divergence(weight):
    # exp:1 past diverges at factor 1: by non-convergence under const:1, by
    # the analytic rule under power:1; each spec keeps its own message
    d, w = gx.exponential(1.0), gx.parse_weight(weight)
    specs = [MeasureSpec(PAST, MAX_RSSU, 3), MeasureSpec(PAST), MeasureSpec(PAST, SRS, 2)]
    for order in (specs, specs[::-1]):
        shared = _FactorSequence(d, w, PAST)
        for spec in order:
            fresh = outcome(lambda: measure_report(d, w, spec))
            assert fresh[0] == "diverges"
            assert outcome(lambda: shared.report(spec)) == fresh
    by_spec = {spec.design: outcome(lambda: measure_report(d, w, spec)) for spec in specs}
    if weight == "const:1":
        assert by_spec[MAX_RSSU][3] == 1 and "(factor i=1)" in by_spec[MAX_RSSU][1]
        assert by_spec[SINGLE][3] is None and "for the past integrand; " in by_spec[SINGLE][1]
        assert by_spec[MAX_RSSU][4] == by_spec[SINGLE][4] > 0.0
    else:
        assert all(o[3] is None and "unbounded support" in o[1] for o in by_spec.values())


def test_directly_built_distribution_with_a_prefetched_tag_stays_one_node_at_a_time():
    # an exponential tag on power-survival callables, whose density rounds
    # differently on arrays: only the factories mark a family for the prefetch
    ps = gx.power_survival(0.7)
    d = gx.Distribution(
        EXPONENTIAL, 0.0, 1.0, ps.cdf, ps.pdf, ps.quantile, ps.pdf_at_quantile, (1.0,), "direct"
    )
    w = gx.power_weight(1.5)
    shared = _FactorSequence(d, w, RESIDUAL)
    specs = [MeasureSpec(RESIDUAL, MIN_RSSU, n) for n in range(6, 0, -1)] + [MeasureSpec(RESIDUAL, SRS, 3)]
    for spec in specs:
        assert outcome(lambda: shared.report(spec)) == fresh_outcome(d, w, spec)
    assert_one_node_pairs(shared)


def test_sequence_evaluates_the_weight_once_per_node(monkeypatch):
    # uniform(0, 1) has Q(u) = u, so the weight's points are the nodes
    weigh, integrate = measures.eval_weight, measures.integrate_unit_interval
    weight_calls, weighed, integrand_calls = [], [], []

    def counting_weight(w, x):
        weight_calls.append(x)
        weighed.extend(np.atleast_1d(x).tolist())
        return weigh(w, x)

    def recording(f):
        def integrand(u):
            integrand_calls.append(u)
            return f(u)

        return integrate(integrand)

    monkeypatch.setattr(measures, "eval_weight", counting_weight)
    monkeypatch.setattr(measures, "integrate_unit_interval", recording)
    measure_report(gx.uniform(), gx.power_weight(2.0), MeasureSpec(PAST, MAX_RSSU, 5))
    assert len(weighed) == len(set(weighed))  # no node reaches the weight twice
    assert set(integrand_calls) <= set(weighed)
    # a panel's 21 nodes go to the weight in one call
    assert len(weight_calls) < len(set(integrand_calls)) < len(integrand_calls)
