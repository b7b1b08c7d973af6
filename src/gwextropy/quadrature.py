"""Adaptive quadrature over (0,1) and the beta function.

All measure integrals in this library live on the open unit interval after the
substitution u = F(x); integrands may blow up at either endpoint, so the
engine must never evaluate there. The adaptive Gauss-Kronrod rules used here
have strictly interior nodes; the one float-level exception (a node rounding
onto an endpoint after very deep subdivision) is snapped back to the nearest
interior double before the integrand sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad as _quad

from .errors import DomainError, IntegrandError

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-8
DEFAULT_MAX_SUBDIVISIONS = 10_000


@dataclass(frozen=True)
class IntegrationResult:
    """Outcome of one adaptive integration.

    ``converged`` is True only when the error estimate met the requested
    tolerance; an exhausted subdivision budget yields an unconverged result,
    never an exception.
    """

    value: float
    abs_error_estimate: float
    subdivisions: int
    converged: bool


def _guarded(f: Callable[[float], float], lower: float, upper: float):
    # Snap an endpoint hit (possible only through float rounding during deep
    # subdivision) to the nearest interior double; reject non-finite values
    # at genuinely interior points.
    def wrapped(u: float) -> float:
        if u <= lower:
            u = np.nextafter(lower, upper)
        elif u >= upper:
            u = np.nextafter(upper, lower)
        y = float(f(u))
        if not math.isfinite(y):
            raise IntegrandError(u, y)
        return y

    return wrapped


def integrate_interval(f: Callable[[float], float], lower: float, upper: float) -> IntegrationResult:
    """Integrate f over the open interval (lower, upper) inside [0, 1]."""
    if not (0.0 <= lower < upper <= 1.0):
        raise DomainError(f"need 0 <= lower < upper <= 1, got ({lower}, {upper})")
    ret = _quad(
        _guarded(f, lower, upper),
        lower,
        upper,
        epsabs=DEFAULT_ABS_TOL,
        epsrel=DEFAULT_REL_TOL,
        limit=DEFAULT_MAX_SUBDIVISIONS,
        full_output=1,
    )
    value, abs_err = float(ret[0]), float(ret[1])
    subdivisions = int(ret[2]["last"])
    # A fourth element is the quadpack warning message; its presence means the
    # tolerance was not certified.
    converged = len(ret) == 3 and abs_err <= max(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * abs(value))
    return IntegrationResult(value, abs_err, subdivisions, converged)


def integrate_unit_interval(f: Callable[[float], float]) -> IntegrationResult:
    """Integrate f over (0,1) adaptively with open (interior-node) rules."""
    return integrate_interval(f, 0.0, 1.0)


def beta(a: float, b: float) -> float:
    """Beta(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    if not (a > 0 and b > 0):
        raise DomainError(f"beta requires a, b > 0, got ({a}, {b})")
    # Work in log space so large arguments cannot overflow the quotient.
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
