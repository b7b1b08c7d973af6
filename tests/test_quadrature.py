"""Quadrature wrapper: exactness on smooth integrands, honest reporting on bad ones."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

import gwextropy as gx
from gwextropy import quadrature
from gwextropy.errors import DomainError, IntegrandError
from gwextropy.measures import DELTA_GWJ, PHI_I, PSI_I, IntegrandKind, make_integrand
from gwextropy.quadrature import (
    DEFAULT_ABS_TOL,
    DEFAULT_MAX_SUBDIVISIONS,
    DEFAULT_REL_TOL,
    IntegrationResult,
    _guarded,
    _scipy_extension,
    beta,
    integrate_interval,
    integrate_unit_interval,
)


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


def _pin_cases():
    """Registry integrands (power weights on the uniform, exponential and
    power-survival families) and the divergence probes: unconverged, divergent
    and raising integrands."""
    cases = []
    for dist in ("uniform:0,1", "exp:0.5", "exp:2", "powersurv:0.6", "powersurv:2"):
        for m in (0.25, 3.7):
            for kind in (PSI_I, PHI_I):
                for i in (1, 4):
                    integrand = make_integrand(gx.parse_distribution(dist), gx.power_weight(m), IntegrandKind(kind, i))
                    cases.append(pytest.param(integrand, id=f"{dist} power:{m} {kind}{i}"))
    probes = [
        ("exp:1", "const:1", PSI_I),  # past variant diverges: QUADPACK gives up
        ("exp:1", "expdecay:0.999", PSI_I),
        ("exp:1", "expdecay:1.001", PSI_I),
        ("transform:exp_minus_one(exp:1)", "power:1", PHI_I),
        ("transform:exp_minus_one(exp:1.01)", "power:1", PHI_I),
        ("powersurv:0.5", "const:1", DELTA_GWJ),  # unbounded density
        ("powersurv:2", "power:400", PHI_I),  # factor far below the absolute tolerance
        ("uniform:0,1e308", "const:1", PSI_I),  # beyond the float range
    ]
    for dist, weight, kind in probes:
        index = None if kind == DELTA_GWJ else 1
        integrand = make_integrand(gx.parse_distribution(dist), gx.parse_weight(weight), IntegrandKind(kind, index))
        cases.append(pytest.param(integrand, id=f"{dist} {weight} {kind}"))
    cases.append(pytest.param(lambda u: 1.0 / u, id="pole 1/u"))
    cases.append(pytest.param(lambda u: math.nan if 0.4 < u < 0.6 else 1.0, id="interior nan"))
    return cases


def _outcome(call):
    try:
        return "ok", call()
    except IntegrandError as exc:
        return "raises", (exc.u, exc.value)


@pytest.mark.parametrize("f", _pin_cases())
def test_direct_qagse_call_pins_scipy_quad(f):
    # integrate_interval calls QUADPACK's _qagse from the private extension
    # module; a scipy release that changes that module must fail here
    ours = _outcome(lambda: integrate_interval(f, 0.0, 1.0))
    theirs = _outcome(
        lambda: quad(
            _guarded(f, 0.0, 1.0), 0.0, 1.0, epsabs=DEFAULT_ABS_TOL, epsrel=DEFAULT_REL_TOL,
            limit=DEFAULT_MAX_SUBDIVISIONS, full_output=1,
        )
    )
    assert ours[0] == theirs[0]
    if ours[0] == "raises":
        assert repr(ours[1]) == repr(theirs[1])
        return
    result, ret = ours[1], theirs[1]
    assert (result.value.hex(), result.abs_error_estimate.hex()) == (float(ret[0]).hex(), float(ret[1]).hex())
    assert result.subdivisions == ret[2]["last"]
    # quad appends a warning message exactly when QUADPACK's ier flag is set
    assert result.converged == (len(ret) == 3)


def test_pin_cases_cover_every_outcome():
    outcomes = set()
    for case in _pin_cases():
        (f,) = case.values
        kind, result = _outcome(lambda: integrate_unit_interval(f))
        outcomes.add(kind if kind == "raises" else result.converged)
    assert outcomes == {True, False, "raises"}


def test_extension_is_shared_with_scipy_integrate():
    # one module object: the extension the library loaded is the one that
    # scipy.integrate, imported later, calls
    quadpack = sys.modules["scipy.integrate._quadpack"]
    assert quadrature._qagse.__self__ is quadpack
    assert _scipy_extension("integrate", "_quadpack") is quadpack
    assert sys.modules["scipy.integrate._quadpack_py"]._quadpack is quadpack


def test_quadpack_flag_alone_leaves_a_result_unconverged(monkeypatch):
    # ier = 2 (roundoff detected) with an error estimate inside the tolerance
    monkeypatch.setattr(quadrature, "_qagse", lambda *args: (0.5, 0.0, {"last": 3}, 2))
    assert integrate_unit_interval(lambda u: u) == IntegrationResult(0.5, 0.0, 3, False)


_WITHOUT_EXTENSION_FILES = """
import importlib.machinery
import sys

importlib.machinery.EXTENSION_SUFFIXES[:] = []  # no extension file is found by name
from gwextropy import estimators, quadrature
import scipy.integrate, scipy.special

result = quadrature.integrate_unit_interval(lambda u: u**2.5)
print(repr((result.value, result.abs_error_estimate, result.subdivisions, result.converged)))
print(quadrature._qagse is scipy.integrate._quadpack._qagse, estimators._integrated_kernel("gaussian") is scipy.special.ndtr)
"""


def test_missing_extension_files_fall_back_to_the_package_imports():
    # an install layout without the files imports the same modules the usual way
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_EXTENSION_FILES], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = integrate_unit_interval(lambda u: u**2.5)
    expected = repr((result.value, result.abs_error_estimate, result.subdivisions, result.converged))
    assert proc.stdout == f"{expected}\nTrue True\n"


def test_guarded_snaps_an_endpoint_hit_to_the_nearest_interior_double():
    seen = []
    wrapped = _guarded(lambda u: seen.append(u) or 1.0, 0.0, 1.0)
    assert wrapped(0.0) == 1.0 and wrapped(1.0) == 1.0
    assert seen == [5e-324, 1.0 - 2.0**-53]
