"""Stochastic order certificates and the hypothesis-gated theorem suite."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import gwextropy as gx
from gwextropy import measures, orders
from gwextropy.errors import DomainError, ExtropyError, IntegrandError, WeightValidityError
from gwextropy.orders import (
    CONVEX_TRANSFORM,
    DISP,
    STAR,
    ST,
    SUPERADDITIVE,
    THEOREM_IDS,
    TheoremCase,
    check_lemma1,
    check_order,
    default_suite,
    run_theorem_suite,
)

EXP1 = gx.exponential(1.0)
EXP_HALF = gx.exponential(0.5)
U01 = gx.uniform()
U02 = gx.uniform(0.0, 2.0)


def sqrt_quantile_dist():
    # F(y) = y^2 on [0,1]; G^{-1}(F(x)) = sqrt(x) is concave, so the shape
    # orders against Uniform(0,1) all fail
    return gx.custom(
        lambda u: np.sqrt(u),
        lambda u: 2.0 * np.sqrt(u),
        0.0,
        1.0,
        label="sqrtq",
    )


def test_disp_exponential_pair():
    verdict = check_order(DISP, EXP1, EXP_HALF, 99)
    assert verdict.holds_X_le_Y
    assert verdict.worst_violation >= 0.0
    assert verdict.grid == 99


def test_disp_mirror_fails_near_half():
    verdict = check_order(DISP, EXP_HALF, EXP1, 99)
    assert not verdict.holds_X_le_Y
    # violation is -0.5(1-u), worst at the low end of the interior grid
    assert verdict.worst_violation == pytest.approx(-0.5, abs=0.01)


def test_every_kind_is_reflexive():
    for kind in (DISP, CONVEX_TRANSFORM, STAR, SUPERADDITIVE, ST):
        verdict = check_order(kind, U01, U01)
        assert verdict.holds_X_le_Y
        assert verdict.worst_violation >= 0.0


def test_usual_stochastic_order():
    assert check_order(ST, U01, U02).holds_X_le_Y
    assert not check_order(ST, U02, U01).holds_X_le_Y


def test_shape_orders_on_linear_map():
    # G^{-1}(F(x)) = 2x: convex, star-shaped, superadditive, and dispersive
    for kind in (DISP, CONVEX_TRANSFORM, STAR, SUPERADDITIVE):
        verdict = check_order(kind, U01, U02)
        assert verdict.holds_X_le_Y, kind


def test_shape_orders_on_convex_map():
    # G^{-1}(F(x)) = -ln(1-x) is convex through 0
    for kind in (CONVEX_TRANSFORM, STAR, SUPERADDITIVE, DISP):
        assert check_order(kind, U01, EXP1).holds_X_le_Y, kind


def test_shape_orders_fail_on_concave_map():
    dY = sqrt_quantile_dist()
    for kind in (CONVEX_TRANSFORM, STAR, SUPERADDITIVE):
        verdict = check_order(kind, U01, dY)
        assert not verdict.holds_X_le_Y, kind
        assert verdict.worst_violation < -1e-9


def test_shape_orders_need_support_at_zero():
    with pytest.raises(DomainError):
        check_order(STAR, gx.uniform(1.0, 2.0), U02)
    with pytest.raises(DomainError):
        check_order(SUPERADDITIVE, U01, gx.uniform(1.0, 2.0))


def test_check_order_guards():
    with pytest.raises(DomainError):
        check_order("sideways", U01, U02)
    with pytest.raises(DomainError):
        check_order(DISP, U01, U02, grid_points=5)


def _order_outcome(kind, dX, dY, grid):
    """check_order's verdict, or its error's type and message, with the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = repr(check_order(kind, dX, dY, grid))
        except ExtropyError as exc:
            outcome = (type(exc), str(exc))
    return outcome, [(w.category, str(w.message)) for w in caught]


IDENTITY_INPUTS = [
    "uniform:0,1", "uniform:1,2", "uniform:-1,1", "uniform:1e16,10000000000000002",
    "exp:1", "exp:0.5", "exp:5e-324", "powersurv:0.01", "powersurv:2", "powersurv:50",
    "transform:exp_minus_one(uniform:0,1)", "transform:identity(exp:1)",
    "transform:exp_minus_one(powersurv:2)",
]


@pytest.mark.parametrize("kind", [DISP, CONVEX_TRANSFORM, STAR, SUPERADDITIVE, ST])
def test_one_object_on_both_sides_is_checked_like_an_equal_copy(kind):
    # X <= X holds for every order, but only where the order is defined: the
    # support, monotonicity and finiteness checks run for one object as for two
    for d in [*map(gx.parse_distribution, IDENTITY_INPUTS), sqrt_quantile_dist()]:
        for grid in (10, 257):
            same = _order_outcome(kind, d, d, grid)
            assert same == _order_outcome(kind, d, dataclasses.replace(d), grid), (d.label, grid)


def test_lemma1_consistency_on_registered_pairs():
    pairs = [
        (U01, U02),
        (U01, EXP1),
        (EXP1, EXP_HALF),
        (U01, sqrt_quantile_dist()),
        (gx.power_survival(2.0), U01),
    ]
    for dX, dY in pairs:
        report = check_lemma1(dX, dY)
        assert report.consistent, (dX.label, dY.label)


def test_lemma1_exponential_pair_details():
    report = check_lemma1(EXP1, EXP_HALF)
    assert report.applicable
    assert report.density_condition
    # linear transform: every shape order holds, so disp must hold too
    assert all(v.holds_X_le_Y for v in report.shape_verdicts.values())
    assert report.disp is not None and report.disp.holds_X_le_Y


def test_lemma1_not_applicable_off_zero():
    report = check_lemma1(gx.uniform(1.0, 2.0), U02)
    assert not report.applicable
    assert report.consistent


def test_default_suite_shape():
    reports = run_theorem_suite()
    assert len(reports) > 0
    assert {r.theorem_id for r in reports} == set(THEOREM_IDS)
    # nothing in the shipped configurations fails under passing hypotheses
    assert not any(r.gated_failure for r in reports)


def test_default_suite_report_table():
    # Everything but the margins: ids, subjects, verdict flags and notes, and
    # each hypothesis's name, flag and note, in report order.
    table = json.loads((Path(__file__).parent / "default_suite_table.json").read_text())
    rows = [
        [r.theorem_id, r.subject, r.passed, r.inconclusive, r.gated_failure, r.note,
         [[h.name, h.passed, h.note] for h in r.hypotheses_checked]]
        for r in run_theorem_suite()
    ]
    assert len(rows) == 68
    assert rows == table


def test_dominance_margin_anchor():
    # maxRSSU past vs SRS past at n=2 for the linear weight: (-1/48)-(-1/32)
    reports = run_theorem_suite(
        [TheoremCase(dX=U01, w1=gx.power_weight(1.0), n_values=(2,))]
    )
    by_id = {r.theorem_id: r for r in reports}
    anchor = by_id["T4.max≥SRS"]
    assert anchor.passed
    assert anchor.conclusion_margin == pytest.approx(1 / 96, rel=1e-9)


def test_monotone_reports_uniform():
    reports = run_theorem_suite(
        [TheoremCase(dX=U01, w1=gx.power_weight(1.0), n_values=(1, 2, 3, 4))]
    )
    for rid in ("T6.min-mono", "T6.max-mono"):
        report = next(r for r in reports if r.theorem_id == rid)
        assert report.passed
        assert report.conclusion_margin > 0.0


def test_a_chain_that_diverges_part_way_fails_at_its_first_divergent_size():
    # powersurv:5 past maxRSSU is finite at n = 1, but factor 2 does not converge
    dX, w = gx.power_survival(5.0), gx.power_weight(1.0)
    spec = measures.MeasureSpec(measures.PAST, measures.MAX_RSSU, 1)
    assert math.isfinite(measures.measure_report(dX, w, spec).value)
    reports = run_theorem_suite([TheoremCase(dX=dX, w1=w, n_values=(1, 2, 3))])
    report = next(r for r in reports if r.theorem_id == "T6.max-mono")
    assert report.conclusion_margin == -math.inf
    assert report.note == "design sizes n >= 2 diverge to -inf"
    assert not report.passed


@pytest.mark.parametrize("n_values", [(1, 2, 3), (2, 3)])
def test_a_chain_that_diverges_throughout_is_equal_in_the_extended_reals(n_values):
    reports = run_theorem_suite([TheoremCase(dX=EXP1, w1=gx.power_weight(1.0), n_values=n_values)])
    report = next(r for r in reports if r.theorem_id == "T6.max-mono")
    assert report.conclusion_margin == 0.0
    assert report.note == "every design size diverges to -inf; equal in the extended reals"


def test_bounded_pair_full_pass():
    case = TheoremCase(
        dX=gx.uniform(1.0, 2.0),
        dY=U02,
        w1=gx.exp_decay_weight(1.0),
        n_values=(1, 2),
    )
    reports = run_theorem_suite([case])
    comparison = [r for r in reports if r.theorem_id in ("T2.1", "T2.2", "T5.1", "T5.3")]
    assert len(comparison) == 6
    for r in comparison:
        assert r.passed, (r.theorem_id, r.conclusion_margin, r.note)


def test_exponential_pair_is_flagged_not_asserted():
    case = TheoremCase(dX=EXP1, dY=EXP_HALF, w1=gx.exp_decay_weight(1.0), n_values=(1,))
    reports = run_theorem_suite([case])
    past = next(r for r in reports if r.theorem_id == "T2.1")
    endpoint = past.hypotheses_checked[0]
    assert not endpoint.passed  # infinite right endpoints
    assert not past.hypotheses_ok
    assert not past.passed
    assert not past.gated_failure
    assert "beyond stated hypotheses" in past.note
    # the conclusion really is false here; the margin records that honestly
    assert past.conclusion_margin == pytest.approx(-1 / 12, rel=1e-8)
    residual = next(r for r in reports if r.theorem_id == "T2.2")
    assert residual.conclusion_margin == pytest.approx(1 / 12, rel=1e-8)
    assert not residual.passed  # still ungated: hypotheses failed


def test_reflexive_margins_are_zero():
    case = TheoremCase(dX=U01, dY=U01, w1=gx.exp_decay_weight(1.0), n_values=(1, 2))
    for r in run_theorem_suite([case]):
        if r.theorem_id in ("T2.1", "T2.2", "T5.1", "T5.3"):
            assert abs(r.conclusion_margin) <= 1e-10
            assert r.passed


def test_tolerance_band_marks_inconclusive():
    # a weight that rises by ~1e-13 per grid step: inside the band, so the
    # report must be inconclusive rather than passed or gated
    barely_rising = gx.custom_weight(lambda x: 1.0 + 1e-10 * x, label="barely")
    case = TheoremCase(dX=U01, dY=gx.uniform(), w1=barely_rising, n_values=(1,))
    reports = run_theorem_suite([case])
    past = next(r for r in reports if r.theorem_id == "T2.1")
    assert past.inconclusive
    assert not past.passed
    assert not past.gated_failure


def test_transform_reports_uniform_base():
    case = TheoremCase(
        dX=U01,
        w1=gx.power_weight(1.0),
        transformation=gx.EXP_MINUS_ONE,
        n_values=(1, 2),
    )
    reports = run_theorem_suite([case])
    psi_ids = {"T3.ψ", "T4.max-ψ", "T4.min-ψ"}
    psi_reports = [r for r in reports if r.theorem_id in psi_ids]
    assert len(psi_reports) == 6
    for r in psi_reports:
        assert r.passed, (r.theorem_id, r.conclusion_margin)
        assert r.conclusion_margin > 0.0


def test_transform_divergent_base_uses_extended_reals():
    case = TheoremCase(
        dX=EXP1,
        w1=gx.power_weight(1.0),
        transformation=gx.EXP_MINUS_ONE,
        n_values=(2,),
    )
    reports = run_theorem_suite([case])
    srs = next(r for r in reports if r.theorem_id == "T3.ψ")
    assert srs.passed
    assert srs.conclusion_margin == 0.0
    assert "diverge" in srs.note
    min_side = next(r for r in reports if r.theorem_id == "T4.min-ψ")
    assert min_side.passed
    assert math.isinf(min_side.conclusion_margin) and min_side.conclusion_margin > 0


def test_transform_failure_is_reported_not_raised():
    case = TheoremCase(
        dX=gx.uniform(-1.0, 1.0),
        w1=gx.constant_weight(1.0),
        transformation=gx.EXP_MINUS_ONE,
        n_values=(1,),
    )
    reports = run_theorem_suite([case])
    psi_reports = [r for r in reports if "ψ" in r.theorem_id]
    assert psi_reports
    for r in psi_reports:
        assert not r.hypotheses_ok
        assert not r.gated_failure
        assert math.isnan(r.conclusion_margin)


def test_psi_claim_with_the_le_sign_measures_x_before_psi_x():
    # w(x) = x^-3 has w(psi(x))psi'(x) <= w(x) for psi = e^x - 1, so the claim
    # reads measure(psi(X)) >= measure(X). w is invalid off the grid, on
    # (0.997, 1] and above 1.709, where the first quadrature pass reaches for
    # X (x = 0.9978) and for psi(X) alike: the error must still come from X,
    # the side measured first whichever way the claim points
    def w(x):
        x = np.asarray(x, float)
        return np.where(((x > 0.997) & (x <= 1.0)) | (x > 1.709), -x - 1.0, x**-3.0)

    case = TheoremCase(
        dX=U01,
        w1=gx.custom_weight(w, label="cubic"),
        transformation=gx.EXP_MINUS_ONE,
        n_values=(1,),
    )
    with pytest.raises(WeightValidityError, match=r"invalid value -1\.997"):
        run_theorem_suite([case])


def test_suite_integrates_each_factor_once(monkeypatch):
    integrate = measures.integrate_unit_interval
    calls = []

    def counting(f):
        calls.append(f)
        return integrate(f)

    monkeypatch.setattr(measures, "integrate_unit_interval", counting)
    run_theorem_suite()
    # 50 distinct (distribution, weight, variant, factor index) integrals;
    # evaluating every report on its own integrates 211
    assert len(calls) == 50


def test_suite_builds_each_sequence_once_with_its_own_node_map(monkeypatch):
    built = []

    def recording(d, w, variant):
        sequence = measures._FactorSequence(d, w, variant)
        built.append(sequence)
        return sequence

    monkeypatch.setattr(orders, "_FactorSequence", recording)
    run_theorem_suite()
    keys = [(s.d, s.w, s.variant) for s in built]
    assert len(keys) == len(set(keys))
    assert len({id(s.nodes) for s in built}) == len(built)
    assert all(s.nodes for s in built if s.results)


def test_suite_reports_match_fresh_integrands(monkeypatch):
    # one distribution with two weights and with two variants: the node maps
    # must follow (distribution, weight, variant), and the reports equal the
    # ones built from integrands that read no node map
    dX, dY = gx.uniform(1.0, 2.0), gx.uniform(0.0, 2.0)
    cases = [
        TheoremCase(dX=dX, w1=gx.exp_decay_weight(1.0), dY=dY),
        TheoremCase(dX=dX, w1=gx.power_weight(1.0), dY=dY, w2=gx.power_weight(2.0)),
        TheoremCase(dX=dX, w1=gx.constant_weight(1.0), n_values=(1, 2, 3, 4)),
    ]
    shared = run_theorem_suite(cases)
    make = measures.make_integrand
    monkeypatch.setattr(measures, "make_integrand", lambda d, w, kind, nodes=None: make(d, w, kind))
    assert [repr(r) for r in shared] == [repr(r) for r in run_theorem_suite(cases)]


def test_psi_claim_with_the_le_sign_ends_with_finite_margins():
    # w(x) = x^-2.5 has w(psi(x))psi'(x) <= w(x) for psi = e^x - 1, so the
    # claim reads measure(psi(X)) >= measure(X)
    w = gx.custom_weight(lambda x: np.asarray(x, float) ** -2.5, label="x^-2.5")
    case = TheoremCase(dX=U01, w1=w, transformation=gx.EXP_MINUS_ONE, n_values=(1,))
    reports = {r.theorem_id: r for r in run_theorem_suite([case])}
    dY = gx.transform(U01, gx.EXP_MINUS_ONE)
    for theorem_id, spec in (
        ("T3.ψ", measures.MeasureSpec(measures.PAST, measures.SRS, 1)),
        ("T4.max-ψ", measures.MeasureSpec(measures.PAST, measures.MAX_RSSU, 1)),
    ):
        report = reports[theorem_id]
        assert report.hypotheses_checked[1].note == "sign: <= everywhere"
        expected = measures.measure_report(dY, w, spec).value - measures.measure_report(U01, w, spec).value
        assert report.conclusion_margin == expected
        assert report.conclusion_margin == pytest.approx(0.0943, abs=1e-4)
        assert report.passed and report.note == ""


def test_comparison_with_a_divergent_left_side_has_margin_minus_inf():
    case = TheoremCase(dX=EXP1, w1=gx.power_weight(1.0), dY=U01, n_values=(1,))
    past = next(r for r in run_theorem_suite([case]) if r.theorem_id == "T2.1")
    assert past.conclusion_margin == -math.inf
    assert past.note.endswith("; left side diverges to -inf")
    assert not past.passed and not past.gated_failure


def test_mixed_psi_signs_report_nan_without_measuring():
    case = TheoremCase(
        dX=U01, w1=gx.exp_decay_weight(3.0), transformation=gx.EXP_MINUS_ONE, n_values=(1, 2)
    )
    psi_reports = [r for r in run_theorem_suite([case]) if "ψ" in r.theorem_id]
    assert len(psi_reports) == 6
    for r in psi_reports:
        sign = r.hypotheses_checked[1]
        assert not sign.passed and sign.note.startswith("mixed signs on the grid (min -3.639e-02")
        assert math.isnan(r.conclusion_margin)
        assert not r.passed and not r.gated_failure


@pytest.mark.parametrize(
    "kind, at, value",
    [
        (CONVEX_TRANSFORM, 1 / 258, math.inf),
        (STAR, 1 / 258, math.inf),
        (SUPERADDITIVE, 1 / 65, math.inf),
        (ST, 1 / 258, -math.inf),
    ],
)
def test_a_non_finite_quantile_is_an_integrand_error(kind, at, value):
    # Q(u) = -log(1-u)/5e-324 overflows at every grid point; X is evaluated first
    with np.errstate(over="ignore"):
        with pytest.raises(IntegrandError) as info:
            check_order(kind, gx.exponential(5e-324), U01)
    assert (info.value.u, info.value.value) == (at, value)


def test_superadditive_with_no_pair_inside_the_support_holds_vacuously():
    # Q(u) = u^0.001: even the two smallest grid quantiles sum past 1
    steep = gx.custom(
        lambda u: np.asarray(u, float) ** 0.001,
        lambda u: 1000.0 * np.asarray(u, float) ** 0.999,
        0.0,
        1.0,
        label="steep",
    )
    verdict = check_order(SUPERADDITIVE, steep, U01)
    assert verdict == orders.OrderVerdict(SUPERADDITIVE, True, 64, math.inf)


def test_a_flat_quantile_step_is_a_domain_error_naming_x():
    # Q(u) of X rounds to the same double at neighbouring grid points
    message = r"^quantile Q\(u\) of uniform:1e\+16,1\.0000000000000002e\+16 does not increase at u=0\.00387"
    with pytest.raises(DomainError, match=message):
        check_order(CONVEX_TRANSFORM, gx.uniform(1e16, 1e16 + 2), U01)
