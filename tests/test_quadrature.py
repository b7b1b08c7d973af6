"""Quadrature wrapper: exactness on smooth integrands, honest reporting on bad ones."""

import math

import pytest
from numpy.testing import assert_allclose

from gwextropy.errors import DomainError, IntegrandError
from gwextropy.quadrature import beta, integrate_interval, integrate_unit_interval


def test_monomials_to_degree_12():
    # antiderivative oracle: each monomial integrates to 1/(k+1)
    for k in range(13):
        result = integrate_unit_interval(lambda u, k=k: u**k)
        assert result.converged
        assert_allclose(result.value, 1.0 / (k + 1), rtol=0, atol=1e-12)


def test_mixed_polynomial():
    result = integrate_unit_interval(lambda u: 3 * u**12 - 2 * u**5 + 0.25)
    assert_allclose(result.value, 3 / 13 - 2 / 6 + 0.25, atol=1e-12)


@pytest.mark.parametrize("a", [1, 2, 3, 5])
@pytest.mark.parametrize("b", [1, 2, 3, 5])
def test_beta_kernel_matches_gamma_route(a, b):
    result = integrate_unit_interval(lambda u: u ** (a - 1) * (1 - u) ** (b - 1))
    assert result.converged
    assert_allclose(result.value, beta(a, b), rtol=1e-9)


def test_split_interval_additivity():
    def f(u):
        return math.exp(-u) * u**2

    whole = integrate_interval(f, 0.0, 1.0)
    left = integrate_interval(f, 0.0, 0.33)
    right = integrate_interval(f, 0.33, 1.0)
    assert_allclose(left.value + right.value, whole.value, rtol=1e-10)
    # antiderivative -(u^2 + 2u + 2) e^{-u} evaluated on [0, 1]
    exact = 2.0 - 5.0 * math.exp(-1.0)
    assert_allclose(whole.value, exact, rtol=1e-10)


def test_interval_rejects_out_of_range_bounds():
    with pytest.raises(DomainError):
        integrate_interval(lambda u: 1.0, 0.0, 4.0)
    with pytest.raises(DomainError):
        integrate_interval(lambda u: 1.0, 0.5, 0.5)


def test_error_estimate_is_honest():
    result = integrate_unit_interval(lambda u: math.sin(7 * u))
    exact = (1 - math.cos(7.0)) / 7.0
    assert abs(result.value - exact) <= max(result.abs_error_estimate, 1e-12)


def test_nonintegrable_pole_reports_unconverged():
    result = integrate_unit_interval(lambda u: 1.0 / u)
    assert not result.converged


def test_interior_nan_raises_with_location():
    def bad(u):
        return math.nan if 0.4 < u < 0.6 else 1.0

    with pytest.raises(IntegrandError) as excinfo:
        integrate_unit_interval(bad)
    assert 0.0 < excinfo.value.u < 1.0


def test_beta_values():
    assert_allclose(beta(2.0, 3.0), 1 / 12, rtol=1e-12)
    assert_allclose(beta(3.0, 5.0), 1 / 105, rtol=1e-12)
    assert_allclose(beta(0.5, 0.5), math.pi, rtol=1e-14)
    with pytest.raises(DomainError):
        beta(0.0, 1.0)
