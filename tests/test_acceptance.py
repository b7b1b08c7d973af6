"""End-to-end acceptance checks, one numbered group per shipped guarantee.

Each check asserts its stated tolerance directly. Two assertions in group 5
are kept faithful to the stated claim even though the claim is false for
unbounded supports (the equal-finite-endpoint hypothesis is essential for
the past-variant comparisons); they fail with explanatory messages rather
than being weakened.
"""

import json
import math
from time import perf_counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gwextropy as gx
from gwextropy.cli import run_command
from gwextropy.errors import DivergenceError
from gwextropy.measures import (
    MAX_RSSU,
    MIN_RSSU,
    PAST,
    RESIDUAL,
    SRS,
    MeasureSpec,
    gw_cumulative,
    gw_design_measure,
)
from gwextropy.orders import DISP, check_lemma1, check_order

from conftest import ks_distance

U01 = gx.uniform()
EXP1 = gx.exponential(1.0)
EXP_HALF = gx.exponential(0.5)
DECAY = gx.exp_decay_weight(1.0)
POWER = {m: gx.power_weight(float(m)) for m in (1, 2, 3)}


def measure_or_neg_inf(d, w, spec):
    try:
        return gw_design_measure(d, w, spec)
    except DivergenceError:
        return -math.inf


# 1 ------------------------------------------------------------------------


def test_c1_closed_form_reproduction():
    start = perf_counter()
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            got = gw_design_measure(U01, POWER[m], MeasureSpec(PAST, SRS, n))
            assert_allclose(got, -0.5 * (1.0 / (m + 3)) ** n, rtol=1e-8)

            got = gw_design_measure(U01, POWER[m], MeasureSpec(PAST, MAX_RSSU, n))
            expected = -0.5 * math.prod(1.0 / (2 * i + m + 1) for i in range(1, n + 1))
            assert_allclose(got, expected, rtol=1e-8)

    for rate in (0.5, 1.0, 2.0):
        d = gx.exponential(rate)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                got = gw_design_measure(d, POWER[m], MeasureSpec(RESIDUAL, MIN_RSSU, n))
                expected = (
                    -0.5
                    * (math.gamma(m + 1) / (2.0 * rate) ** (m + 1)) ** n
                    * (1.0 / math.factorial(n)) ** (m + 1)
                )
                assert_allclose(got, expected, rtol=1e-8)

    for b in (1.0, 2.0):
        d = gx.power_survival(b)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                got = gw_design_measure(d, POWER[m], MeasureSpec(RESIDUAL, MIN_RSSU, n))
                expected = -0.5 * math.prod(
                    gx.beta(m + 1.0, 2.0 * i * b + 1.0)
                    for i in range(1, n + 1)
                )
                assert_allclose(got, expected, rtol=1e-8)

    assert perf_counter() - start < 10.0


# 2 ------------------------------------------------------------------------


def test_c2_product_constant_exponent_adjudication():
    # quadrature is the arbiter between the two printed closed-form variants:
    # the constant enters once per factor, (Gamma(m+1))^n, not squared
    got = gw_design_measure(U01, POWER[2], MeasureSpec(RESIDUAL, MIN_RSSU, 3))
    tail = math.prod(math.gamma(2 * i + 1) / math.gamma(2 * i + 4) for i in (1, 2, 3))
    cubed_constant = -0.5 * math.gamma(3) ** 3 * tail
    squared_constant = -0.5 * math.gamma(3) ** 2 * tail
    assert_allclose(got, cubed_constant, rtol=1e-8)
    assert_allclose(got, -1.0 / 1_587_600.0, rtol=1e-8)
    # the discrepancy is exactly a factor of 2 and must not be papered over
    assert_allclose(squared_constant / got, 0.5, rtol=1e-8)
    assert abs(got - squared_constant) > 0.4 * abs(got)


# 3 ------------------------------------------------------------------------


def test_c3_design_dominance_over_srs():
    families = [U01, EXP1, gx.power_survival(2.0)]
    pairs = ((PAST, MAX_RSSU), (RESIDUAL, MIN_RSSU))
    for d in families:
        for m in (1, 2):
            for n in (2, 3, 4):
                for variant, design in pairs:
                    lhs = measure_or_neg_inf(d, POWER[m], MeasureSpec(variant, design, n))
                    rhs = measure_or_neg_inf(d, POWER[m], MeasureSpec(variant, SRS, n))
                    if math.isinf(lhs) and math.isinf(rhs):
                        continue  # degenerate equality: both sides diverge together
                    assert lhs - rhs > 0.0, (d.label, m, n, variant, design, lhs, rhs)


# 4 ------------------------------------------------------------------------


def test_c4_monotone_in_design_size():
    for m in (1, 2):
        for variant, design in ((PAST, MAX_RSSU), (RESIDUAL, MIN_RSSU)):
            values = [
                gw_design_measure(U01, POWER[m], MeasureSpec(variant, design, n))
                for n in range(1, 6)
            ]
            diffs = np.diff(values)
            assert np.all(diffs > 0.0), (variant, values)
            # each growth step obeys the proof's bound on the next factor
            for n in range(1, 5):
                ratio = values[n] / values[n - 1]
                assert ratio <= 1.0 / (2 * n + 3) + 1e-12, (variant, m, n, ratio)


# 5 ------------------------------------------------------------------------


def test_c5_dispersive_hypothesis_holds():
    verdict = check_order(DISP, EXP1, EXP_HALF)
    assert verdict.holds_X_le_Y
    assert verdict.worst_violation >= 0.0


def test_c5_lemma1_consistency():
    pairs = [(EXP1, EXP_HALF), (U01, gx.uniform(0.0, 2.0)), (U01, EXP1)]
    for dX, dY in pairs:
        assert check_lemma1(dX, dY).consistent, (dX.label, dY.label)


def test_c5_single_past_comparison():
    lhs = gw_cumulative(EXP1, DECAY, PAST)
    rhs = gw_cumulative(EXP_HALF, DECAY, PAST)
    assert lhs >= rhs - 1e-9, (
        f"stated past-variant conclusion fails: {lhs:.6f} < {rhs:.6f} "
        f"(margin {lhs - rhs:.6f}). The dispersive hypothesis holds, but both "
        "supports are unbounded and the comparison genuinely reverses; the "
        "equal-finite-endpoint hypothesis is necessary, not technical."
    )


def test_c5_single_residual_comparison():
    lhs = gw_cumulative(EXP1, DECAY, RESIDUAL)
    rhs = gw_cumulative(EXP_HALF, DECAY, RESIDUAL)
    assert lhs >= rhs - 1e-9
    assert_allclose(lhs, -1.0 / 6.0, rtol=1e-8)
    assert_allclose(rhs, -1.0 / 4.0, rtol=1e-8)


def test_c5_design_past_comparison():
    spec = MeasureSpec(PAST, MAX_RSSU, 2)
    lhs = gw_design_measure(EXP1, DECAY, spec)
    rhs = gw_design_measure(EXP_HALF, DECAY, spec)
    assert lhs >= rhs - 1e-9, (
        f"stated design-level past conclusion fails: {lhs:.6f} < {rhs:.6f} "
        f"(margin {lhs - rhs:.6f}). Same cause as the single-variable case: "
        "unbounded supports reverse the past-variant comparison."
    )


def test_c5_design_residual_comparison():
    spec = MeasureSpec(RESIDUAL, MIN_RSSU, 2)
    lhs = gw_design_measure(EXP1, DECAY, spec)
    rhs = gw_design_measure(EXP_HALF, DECAY, spec)
    assert lhs >= rhs - 1e-9
    assert_allclose(lhs, -1.0 / 30.0, rtol=1e-8)
    assert_allclose(rhs, -1.0 / 12.0, rtol=1e-8)


# 6 ------------------------------------------------------------------------


def test_c6_transform_inequalities():
    for base in (U01, EXP1):
        transformed = gx.transform(base, gx.EXP_MINUS_ONE)
        for n in (1, 2, 3):
            for variant, design in ((PAST, SRS), (PAST, MAX_RSSU), (RESIDUAL, MIN_RSSU)):
                spec = MeasureSpec(variant, design, n)
                mx = measure_or_neg_inf(base, POWER[1], spec)
                my = measure_or_neg_inf(transformed, POWER[1], spec)
                assert mx >= my - 1e-9, (base.label, variant, design, n, mx, my)


# 7 ------------------------------------------------------------------------


def test_c7_estimator_hand_values():
    past = gx.EstimatorConfig("past", m=1.0)
    residual = gx.EstimatorConfig("residual", m=1.0)
    assert_allclose(gx.estimate(np.array([1.0, 2.0]), past), -3 / 16, rtol=0, atol=1e-12)
    three = np.array([0.0, 1.0, 2.0])
    assert_allclose(gx.estimate(three, past), -13 / 36, rtol=0, atol=1e-12)
    assert_allclose(gx.estimate(three, residual), -7 / 36, rtol=0, atol=1e-12)
    kernel = gx.EstimatorConfig("residual", m=1.0, style="kernel", bandwidth=1e-6)
    assert abs(gx.estimate(three, kernel) - gx.estimate(three, residual)) < 1e-3


# 8 ------------------------------------------------------------------------


def test_c8_consistency_ladder(consistency_ladder):
    medians = consistency_ladder["median_rel_err"]["residual"]
    assert medians[0] > medians[1] > medians[2], medians
    assert medians[-1] < 0.02
    assert consistency_ladder["elapsed"] < 60.0


# 9 ------------------------------------------------------------------------


def test_c9_sampler_law_fidelity(rssu_pools):
    z = rssu_pools[gx.MIN_RSSU]
    y = rssu_pools[gx.MAX_RSSU]
    for i in (1, 2, 3):
        assert ks_distance(z[:, i - 1], lambda x, i=i: 1 - (1 - x) ** i) < 0.01
        assert ks_distance(y[:, i - 1], lambda x, i=i: x**i) < 0.01


def test_c9_csv_outputs_reproduce_byte_for_byte(tmp_path):
    cases = [
        ["simulate", "--dist", "exp:1", "--design", "maxrssu", "--n", "6", "--seed", "31"],
        ["simulate", "--dist", "uniform:0,1", "--design", "srs", "--n", "10", "--seed", "8"],
        ["converge", "--dist", "uniform:0,1", "--m", "1", "--variant", "residual",
         "--design", "srs", "--sizes", "100,300", "--seeds", "6", "--seed", "3"],
    ]
    for idx, argv in enumerate(cases):
        first = tmp_path / f"{idx}_a.csv"
        second = tmp_path / f"{idx}_b.csv"
        assert run_command(argv + ["--out", str(first)]) == 0
        assert run_command(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
