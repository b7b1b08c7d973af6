"""Distribution factories, quantile consistency, transforms, and the name:params parser."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gwextropy as gx
from gwextropy.distributions import (
    EXP_MINUS_ONE,
    custom,
    parse_distribution,
    pdf_at_quantile,
    quantile,
    transform,
)
from gwextropy.errors import DomainError, InvalidTransformationError, ParseError

ALL_FAMILIES = [
    gx.uniform(),
    gx.uniform(2.0, 5.0),
    gx.exponential(0.7),
    gx.exponential(2.0),
    gx.power_survival(2.0),
    gx.power_survival(0.5),
]


def test_quantile_closed_forms():
    assert quantile(gx.uniform(), 0.25) == pytest.approx(0.25)
    assert quantile(gx.exponential(2.0), 0.5) == pytest.approx(math.log(2.0) / 2.0)
    # (1-x)^2 = 0.25 at x = 0.5
    assert quantile(gx.power_survival(2.0), 0.75) == pytest.approx(0.5)


def test_pdf_at_quantile_closed_forms():
    assert pdf_at_quantile(gx.exponential(1.0), 0.5) == pytest.approx(0.5)
    assert pdf_at_quantile(gx.uniform(), 0.3) == pytest.approx(1.0)
    assert pdf_at_quantile(gx.power_survival(2.0), 0.75) == pytest.approx(1.0)


def test_missing_density_at_quantile_is_composed():
    base = gx.exponential(2.0)

    def built(pdf_at_q):
        return gx.Distribution(
            base.family_tag, base.support_lower, base.support_upper,
            base.cdf, base.pdf, base.quantile, pdf_at_q, base.params, "direct",
        )

    d = built(None)
    composed = built(lambda u: base.pdf(base.quantile(u)))
    u = np.linspace(0.01, 0.99, 25)
    assert np.array_equal(pdf_at_quantile(d, u), base.pdf(base.quantile(u)))
    assert pdf_at_quantile(d, 0.3) == float(base.pdf(base.quantile(0.3)))
    assert_allclose(
        pdf_at_quantile(transform(d, EXP_MINUS_ONE), u),
        pdf_at_quantile(transform(base, EXP_MINUS_ONE), u),
        rtol=1e-13,
    )
    w = gx.exp_decay_weight(0.5)
    for spec in (gx.MeasureSpec("plain_extropy_weighted"), gx.MeasureSpec("residual", "minRSSU", 3)):
        assert gx.measure_report(d, w, spec).value == gx.measure_report(composed, w, spec).value


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.label)
def test_cdf_quantile_round_trip(d):
    grid = np.linspace(0.01, 0.99, 25)
    x = quantile(d, grid)
    assert_allclose(d.cdf(x), grid, atol=1e-9)
    assert_allclose(pdf_at_quantile(d, grid), d.pdf(x), rtol=1e-7)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.label)
def test_quantile_monotone(d):
    grid = np.linspace(0.001, 0.999, 200)
    assert np.all(np.diff(quantile(d, grid)) > 0)


def test_quantile_rejects_boundary_and_outside():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            quantile(gx.uniform(), bad)
        with pytest.raises(DomainError):
            pdf_at_quantile(gx.exponential(1.0), bad)


def test_cdf_limits():
    d = gx.exponential(1.0)
    assert d.cdf(-1.0) == 0.0
    assert d.cdf(50.0) == pytest.approx(1.0)
    u = gx.uniform(2.0, 5.0)
    assert u.cdf(1.0) == 0.0 and u.cdf(6.0) == 1.0


def test_transform_exp_minus_one_on_uniform():
    y = transform(gx.uniform(), EXP_MINUS_ONE)
    grid = np.linspace(0.05, 0.95, 19)
    assert_allclose(quantile(y, grid), np.expm1(grid), rtol=1e-9)
    # chain rule: g(Q_Y(u)) = f(Q_X(u)) / psi'(Q_X(u)) = e^{-u}
    assert_allclose(pdf_at_quantile(y, grid), np.exp(-grid), rtol=1e-7)
    assert_allclose(y.cdf(np.expm1(grid)), grid, atol=1e-8)
    assert y.support_lower == pytest.approx(0.0)


def test_transform_exp_minus_one_on_exponential():
    # Y = e^X - 1 for X ~ Exp(1) has F_Y(y) = y/(1+y)
    y = transform(gx.exponential(1.0), EXP_MINUS_ONE)
    grid = np.linspace(0.05, 0.95, 19)
    assert_allclose(quantile(y, grid), grid / (1 - grid), rtol=1e-9)
    assert_allclose(y.cdf(grid / (1 - grid)), grid, atol=1e-8)


def test_transform_requires_nonnegative_support():
    with pytest.raises(DomainError):
        transform(gx.uniform(-1.0, 1.0), EXP_MINUS_ONE)


def test_transformation_must_fix_zero():
    with pytest.raises(InvalidTransformationError):
        gx.Transformation("shift", lambda x: x + 1.0, lambda x: 1.0 + 0 * x)


def test_transform_rejects_decreasing_map():
    t = gx.Transformation("neg", lambda x: -x, lambda x: -1.0 + 0 * x)
    with pytest.raises(InvalidTransformationError):
        transform(gx.uniform(), t)


def test_transform_without_registered_inverse():
    # cube has psi(0)=0 and is increasing; the cdf must come from inverting the quantile
    t = gx.Transformation("cube", lambda x: x**3, lambda x: 3.0 * x**2 + 1e-12)
    y = transform(gx.uniform(), t)
    grid = np.linspace(0.1, 0.9, 9)
    assert_allclose(quantile(y, grid), grid**3, rtol=1e-9)
    assert_allclose(y.cdf(grid**3), grid, atol=1e-8)


def test_custom_distribution_bisection_cdf():
    d = custom(
        lambda u: -np.log1p(-u),
        lambda u: 1.0 - u,
        0.0,
        math.inf,
        label="expish",
    )
    xs = np.array([0.1, 0.5, 1.0, 2.5])
    assert_allclose(d.cdf(xs), -np.expm1(-xs), atol=1e-9)


def per_element_bisection(quantile_fn, pdf_at_quantile_fn, lo, hi):
    """cdf and pdf from bisecting the quantile one x at a time: the oracle for
    the array bisection behind custom()."""

    def cdf_scalar(x):
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        u_lo, u_hi = 0.0, 1.0
        for _ in range(64):
            mid = 0.5 * (u_lo + u_hi)
            if float(quantile_fn(mid)) < x:
                u_lo = mid
            else:
                u_hi = mid
        return 0.5 * (u_lo + u_hi)

    cdf = np.vectorize(cdf_scalar, otypes=[float])

    def pdf(x):
        x_arr = np.asarray(x, float)
        u = cdf(x_arr)
        out = np.zeros_like(x_arr, dtype=float)
        inside = (u > 0.0) & (u < 1.0)
        if np.any(inside):
            out = np.where(inside, pdf_at_quantile_fn(np.where(inside, u, 0.5)), 0.0)
        return out

    return cdf, pdf


CUSTOM_CASES = {
    "exponential-like": (lambda u: -np.log1p(-u) / 0.7, lambda u: 0.7 * (1.0 - u), 0.0, math.inf),
    "power-survival-like": (
        lambda u: -np.expm1(np.log1p(-u) / 2.5),
        lambda u: 2.5 * np.exp(np.log1p(-u) * (1.0 - 1.0 / 2.5)),
        0.0,
        1.0,
    ),
    "affine": (lambda u: 2.0 + 3.0 * u, lambda u: 1.0 / 3.0 + 0.0 * u, 2.0, 5.0),
    # numpy's ** may round differently for arrays and for scalars
    "power": (lambda u: 1.0 - (1.0 - u) ** (1.0 / 0.7), lambda u: 0.7 * (1.0 - u) ** (1.0 - 1.0 / 0.7), 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(CUSTOM_CASES))
def test_custom_cdf_and_pdf_match_per_element_bisection(name):
    q, f, lo, hi = CUSTOM_CASES[name]
    top = hi if math.isfinite(hi) else 60.0
    x = np.concatenate((
        np.linspace(lo - 1.0, lo, 50),
        np.linspace(lo, top, 700),
        np.linspace(top, top + 10.0, 50),
        [-np.inf, np.nextafter(lo, np.inf), float(q(np.nextafter(1.0, 0.0))), np.inf],
    ))
    d = custom(q, f, lo, hi)
    with np.errstate(divide="ignore"):  # the oracle reaches u = 1
        cdf, pdf = per_element_bisection(q, f, lo, hi)
        expected = (cdf(x), pdf(x), cdf(0.3))
    got = (d.cdf(x), d.pdf(x), d.cdf(0.3))
    for e, g in zip(expected, got):
        assert g.shape == e.shape
        if name == "power":
            assert_allclose(g, e, rtol=0.0, atol=1e-15)
        else:
            assert np.array_equal(g, e)


def test_custom_never_calls_quantile_at_the_endpoints():
    base = gx.exponential(1.0)
    d = custom(lambda u: quantile(base, u), lambda u: pdf_at_quantile(base, u), 0.0, math.inf)
    assert d.cdf(40.0) == 1.0 and d.pdf(40.0) == 0.0
    seen = []
    recorded = custom(lambda u: seen.append(np.copy(u)) or -np.log1p(-u), lambda u: 1.0 - u, 0.0, math.inf)
    recorded.cdf(np.array([1e-300, 1.0, 40.0, 1e300]))
    u = np.concatenate(seen)
    assert np.all((u > 0.0) & (u < 1.0))


def test_transform_without_inverse_in_the_far_tail():
    cube = gx.Transformation("cube", lambda x: x**3, lambda x: 3.0 * x**2 + 1e-12)
    y = transform(gx.exponential(1.0), cube)
    tail = np.array([1e12, 1e300, np.inf])
    assert y.cdf(tail).tolist() == [1.0, 1.0, 1.0]
    assert y.pdf(tail).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("base", [gx.uniform(), gx.exponential(1.0), gx.exponential(0.01), gx.power_survival(0.7)],
                         ids=lambda d: d.label)
def test_inverse_less_transform_matches_registered_inverse(base):
    stripped = gx.Transformation(EXP_MINUS_ONE.name, EXP_MINUS_ONE.psi, EXP_MINUS_ONE.psi_prime)
    y = np.concatenate(([-1.0, 0.0], np.geomspace(1e-12, 1e300, 3000), [np.inf]))
    with np.errstate(over="ignore"):  # psi = expm1 overflows beyond x ~ 710
        reference, inverted = transform(base, EXP_MINUS_ONE), transform(base, stripped)
        assert_allclose(inverted.cdf(y), reference.cdf(y), rtol=0.0, atol=1e-15)
        ref_pdf, inv_pdf = reference.pdf(y), inverted.pdf(y)
    dense = ref_pdf >= 1e-12
    assert_allclose(inv_pdf[dense], ref_pdf[dense], rtol=1e-9)


def test_parse_distribution_round_trips():
    d = parse_distribution("uniform:0,2")
    assert (d.support_lower, d.support_upper) == (0.0, 2.0)
    assert parse_distribution("exp:1.5").params == (1.5,)
    assert parse_distribution("powersurv:2").params == (2.0,)
    y = parse_distribution("transform:exp_minus_one(uniform:0,1)")
    assert quantile(y, 0.5) == pytest.approx(math.expm1(0.5))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "norm:0,1",
        "uniform:",
        "uniform:2,1",
        "uniform:0,1,2",
        "exp:-1",
        "exp:0",
        "powersurv:-2",
        "transform:nope(exp:1)",
        "transform:exp_minus_one(",
    ],
)
def test_parse_distribution_rejects(text):
    with pytest.raises(ParseError):
        parse_distribution(text)
