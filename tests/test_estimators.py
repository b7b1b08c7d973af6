"""Step and kernel estimators: hand values, limits, bandwidth rule, consistency."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gwextropy as gx
from gwextropy import estimators
from gwextropy.errors import BandwidthError, DomainError, InsufficientDataError
from gwextropy.estimators import (
    SILVERMAN,
    EstimatorConfig,
    _integrated_kernel,
    bandwidth_silverman,
    kernel_estimate,
    resolve_bandwidth,
    smoothed_cdf,
    step_estimate,
)

PAST_CFG = EstimatorConfig("past", m=1.0)
RES_CFG = EstimatorConfig("residual", m=1.0)


def test_two_point_hand_values():
    values = np.array([1.0, 2.0])
    assert_allclose(step_estimate(values, PAST_CFG), -3 / 16, rtol=0, atol=1e-12)
    # at n=2 the past and residual weights coincide: (1/2)^2 = (1 - 1/2)^2
    assert_allclose(step_estimate(values, RES_CFG), -3 / 16, rtol=0, atol=1e-12)


def test_three_point_hand_values():
    values = np.array([0.0, 1.0, 2.0])
    assert_allclose(step_estimate(values, PAST_CFG), -13 / 36, rtol=0, atol=1e-12)
    assert_allclose(step_estimate(values, RES_CFG), -7 / 36, rtol=0, atol=1e-12)


def test_step_accepts_sample_objects():
    sample = gx.draw_design(gx.uniform(), gx.SRS, 40, 3)
    assert step_estimate(sample, RES_CFG) == step_estimate(sample.values, RES_CFG)


def test_step_sorts_unordered_input():
    assert step_estimate(np.array([2.0, 0.0, 1.0]), PAST_CFG) == pytest.approx(-13 / 36)


def test_doubling_scales_by_four_with_linear_weight():
    values = np.array([0.3, 1.1, 2.4, 5.0])
    for cfg in (PAST_CFG, RES_CFG):
        assert_allclose(
            step_estimate(2.0 * values, cfg), 4.0 * step_estimate(values, cfg), rtol=1e-12
        )


def test_estimates_are_nonpositive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        values = rng.exponential(size=rng.integers(2, 30))
        for cfg in (PAST_CFG, RES_CFG, EstimatorConfig("past", m=2.5)):
            assert step_estimate(values, cfg) <= 0.0


def test_input_guards():
    with pytest.raises(InsufficientDataError):
        step_estimate(np.array([1.0]), PAST_CFG)
    with pytest.raises(DomainError):
        step_estimate(np.array([-0.5, 1.0]), PAST_CFG)
    with pytest.raises(DomainError):
        step_estimate(np.array([0.5, math.nan]), PAST_CFG)


def test_config_guards():
    with pytest.raises(DomainError):
        EstimatorConfig("past", m=-1.0)
    with pytest.raises(DomainError):
        EstimatorConfig("sideways", m=1.0)
    with pytest.raises(DomainError):
        EstimatorConfig("past", style="spline")
    with pytest.raises(DomainError):
        EstimatorConfig("past", style="kernel", kernel="box")
    with pytest.raises(BandwidthError):
        EstimatorConfig("past", style="kernel", bandwidth=-0.5)
    with pytest.raises(BandwidthError):
        EstimatorConfig("past", style="kernel", bandwidth="narrow")


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -math.inf])
def test_config_rejects_a_non_finite_or_non_positive_m_and_bandwidth(value):
    with pytest.raises(DomainError, match=r"^weight exponent m must be finite and > 0, got "):
        EstimatorConfig("past", m=value)
    with pytest.raises(BandwidthError, match=r"^bandwidth must be finite and positive, got "):
        EstimatorConfig("past", style="kernel", bandwidth=value)


@pytest.mark.parametrize("style", ["step", "kernel"])
def test_power_overflow_is_a_domain_error_without_numpy_warnings(style):
    cfg = EstimatorConfig("past", m=1e308, style=style, bandwidth=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = "x^(m+1) overflows for m = 1e+308 at the largest observation 3.0"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            gx.estimate(np.array([2.0, 3.0, 1.0]), cfg)
        # below 1 the powers underflow to 0 instead; that stays a value
        assert gx.estimate(np.array([0.25, 0.5]), cfg) == 0.0


def test_smoothed_cdf_symmetry_cases():
    assert smoothed_cdf(np.array([0.0]), "gaussian", 1.0, 0.0) == pytest.approx(0.5)
    assert smoothed_cdf(np.array([-1.0, 1.0]), "gaussian", 2.3, 0.0) == pytest.approx(0.5)
    assert smoothed_cdf(np.array([0.0]), "gaussian", 1.0, 10.0) == pytest.approx(1.0, abs=1e-9)
    assert smoothed_cdf(np.array([-1.0, 1.0]), "epanechnikov", 0.7, 0.0) == pytest.approx(0.5)


def test_smoothed_cdf_monotone_in_x():
    values = np.array([0.2, 0.9, 1.4, 3.0])
    grid = np.linspace(-1.0, 5.0, 301)
    for kernel in ("gaussian", "epanechnikov"):
        f = smoothed_cdf(values, kernel, 0.4, grid)
        assert np.all(np.diff(f) >= -1e-15)
        assert np.all((f >= 0.0) & (f <= 1.0))


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_smoothed_cdf_blocks_keep_shape_and_bits(monkeypatch, block):
    # a block holds max(1, block // n) evaluation points; any block size
    # gives the bits of the one dense (points x observations) evaluation
    monkeypatch.setattr("gwextropy.estimators._KERNEL_BLOCK", block)
    values = np.random.default_rng(4).exponential(size=5)
    for kernel in ("gaussian", "epanechnikov"):
        L = _integrated_kernel(kernel)
        for x in (0.7, np.linspace(0.0, 3.0, 12).reshape(3, 4), np.linspace(0.0, 3.0, 13), np.array([])):
            dense = np.mean(L((np.asarray(x)[..., np.newaxis] - values) / 0.4), axis=-1)
            out = smoothed_cdf(values, kernel, 0.4, x)
            assert np.shape(out) == np.shape(x) and np.asarray(out).tobytes() == dense.tobytes()
    assert type(smoothed_cdf(values, "gaussian", 0.4, 0.7)) is float


def test_gaussian_integrated_kernel_is_scipy_ndtr():
    # the kernel takes ndtr from scipy.special's private extension module; a
    # scipy release that moves or changes it must fail here
    from scipy.special import ndtr

    L = _integrated_kernel("gaussian")
    assert L is ndtr and _integrated_kernel("gaussian") is L
    grid = np.linspace(-40.0, 40.0, 16001)
    assert L(grid).tobytes() == ndtr(grid).tobytes()


def test_epanechnikov_integrated_kernel_closed_form():
    # L(t) = 0.5 + 0.75 t - 0.25 t^3 on [-1, 1], clamped outside
    values = np.array([0.0])
    assert smoothed_cdf(values, "epanechnikov", 1.0, -1.0) == pytest.approx(0.0)
    assert smoothed_cdf(values, "epanechnikov", 1.0, 1.0) == pytest.approx(1.0)
    assert smoothed_cdf(values, "epanechnikov", 1.0, 0.5) == pytest.approx(0.84375)


def test_smoothed_cdf_rejects_bad_bandwidth():
    for h in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(BandwidthError, match=rf"^bandwidth must be finite and positive, got {h!r}$"):
            smoothed_cdf(np.array([0.0, 1.0]), "gaussian", h, 0.5)


def test_power_overflow_is_checked_before_any_smoothing(monkeypatch):
    def never(*args):
        raise AssertionError("smoothed_cdf ran")

    monkeypatch.setattr(estimators, "smoothed_cdf", never)
    message = "x^(m+1) overflows for m = 1e+308 at the largest observation 3.0"
    for bandwidth in (0.5, SILVERMAN):
        cfg = EstimatorConfig("past", m=1e308, style="kernel", bandwidth=bandwidth)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            gx.estimate(np.array([2.0, 3.0, 1.0]), cfg)
        # a constant sample has no silverman bandwidth, but the overflow comes first
        with pytest.raises(DomainError, match=r"^x\^\(m\+1\) overflows"):
            gx.estimate(np.array([3.0, 3.0, 3.0]), cfg)


def test_kernel_golden_value():
    cfg = EstimatorConfig("past", m=1.0, style="kernel", kernel="gaussian", bandwidth=0.5)
    value = kernel_estimate(np.array([1.0, 2.0]), cfg)
    assert -0.5 < value < 0.0
    # golden: the midpoint 1.5 sits symmetrically between both points, so the
    # smoothed CDF there is exactly 1/2 and the sum collapses to -3/16
    assert_allclose(value, -0.1875, rtol=0, atol=1e-12)


def test_kernel_matches_step_as_bandwidth_shrinks():
    values = np.sort(np.random.default_rng(5).exponential(size=40)) + 0.1
    for variant, cfg0 in (("past", PAST_CFG), ("residual", RES_CFG)):
        target = step_estimate(values, cfg0)
        gaps = []
        for h in (1e-2, 1e-4, 1e-6):
            cfg = EstimatorConfig(variant, m=1.0, style="kernel", bandwidth=h)
            gaps.append(abs(kernel_estimate(values, cfg) - target))
        assert gaps[0] >= gaps[1] - 1e-15 and gaps[1] >= gaps[2] - 1e-15
        assert gaps[-1] < 1e-3


def test_kernel_h_limit_on_three_points():
    cfg = EstimatorConfig("residual", m=1.0, style="kernel", bandwidth=1e-6)
    got = kernel_estimate(np.array([0.0, 1.0, 2.0]), cfg)
    assert_allclose(got, -7 / 36, atol=1e-3)


def test_silverman_rule():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(100)
    x = x / np.std(x, ddof=1)  # unit sample deviation
    assert_allclose(bandwidth_silverman(x), 1.06 * 100 ** (-0.2), rtol=1e-12)
    assert_allclose(bandwidth_silverman(2.0 * x), 2.12 * 100 ** (-0.2), rtol=1e-12)
    with pytest.raises(BandwidthError):
        bandwidth_silverman(np.full(10, 3.3))
    with pytest.raises(InsufficientDataError):
        bandwidth_silverman(np.array([1.0]))


def test_resolve_bandwidth_paths():
    values = np.array([0.0, 1.0, 2.0, 4.0])
    numeric = EstimatorConfig("past", style="kernel", bandwidth=0.7)
    assert resolve_bandwidth(values, numeric) == 0.7
    rule = EstimatorConfig("past", style="kernel", bandwidth="silverman")
    assert resolve_bandwidth(values, rule) == pytest.approx(bandwidth_silverman(values))


def test_include_head_adds_fixed_term():
    values = np.array([1.0, 2.0])
    base = gx.estimate(values, RES_CFG)
    with_head = gx.estimate(values, RES_CFG, include_head=True)
    # head term -x_min^{m+1} / (2(m+1)) = -1/4 for these values
    assert_allclose(with_head - base, -0.25, rtol=1e-12)
    # the past variant has no mass below the smallest point
    assert gx.estimate(values, PAST_CFG, include_head=True) == gx.estimate(values, PAST_CFG)
    kcfg = EstimatorConfig("residual", m=1.0, style="kernel", bandwidth=0.5)
    assert_allclose(
        gx.estimate(values, kcfg, include_head=True) - gx.estimate(values, kcfg),
        -0.25,
        rtol=1e-12,
    )


def test_estimate_dispatch():
    values = np.array([0.0, 1.0, 2.0])
    assert gx.estimate(values, RES_CFG) == step_estimate(values, RES_CFG)
    kcfg = EstimatorConfig("residual", m=1.0, style="kernel", bandwidth=0.3)
    assert gx.estimate(values, kcfg) == kernel_estimate(values, kcfg)


def test_step_estimator_is_consistent(consistency_ladder):
    # medians over 50 seeds at n=10000 land within 2% of the analytic values
    for variant in ("past", "residual"):
        assert consistency_ladder["median_rel_err"][variant][-1] < 0.02


def test_smoothed_cdf_input_checks():
    with pytest.raises(DomainError, match=r"^kernel must be gaussian or epanechnikov, got 'box'$"):
        smoothed_cdf([1.0, 2.0], "box", 1.0, 1.5)
    with pytest.raises(InsufficientDataError, match=r"^need at least 1 observation for a smoothed CDF$"):
        smoothed_cdf([], "gaussian", 1.0, 1.5)
