"""Adaptive quadrature over (0,1) and the beta function.

All measure integrals in this library live on the open unit interval after the
substitution u = F(x); integrands may blow up at either endpoint, so the
engine must never evaluate there. The adaptive Gauss-Kronrod rules used here
have strictly interior nodes; the one float-level exception (a node rounding
onto an endpoint after very deep subdivision) is snapped back to the nearest
interior double before the integrand sees it.

The rule is QUADPACK's dqagse, the routine ``scipy.integrate.quad`` calls for
a finite interval, called straight from scipy's extension module: importing
the ``scipy.integrate`` package would run inits that take about two thirds of
a command's cold-start time and that the library never uses.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrandError

DEFAULT_REL_TOL = 1e-8
DEFAULT_MAX_SUBDIVISIONS = 10_000


def _scipy_extension(subpackage: str, module: str):
    """The extension module scipy.<subpackage>.<module>, loaded without running
    any scipy package ``__init__``.

    The module is registered in sys.modules under its real dotted name, so a
    later ``import scipy.<subpackage>`` reuses this very module object. Where
    the extension file is not next to scipy's sources (an unusual install
    layout), the module is imported the usual way, package inits included.
    """
    name = f"scipy.{subpackage}.{module}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")  # locates scipy without importing it
    if spec is not None and spec.origin is not None:
        directory = os.path.join(os.path.dirname(spec.origin), subpackage)
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, module + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                loaded = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader)
                )
                sys.modules[name] = loaded
                loader.exec_module(loaded)
                return loaded
    return importlib.import_module(name)


_qagse = _scipy_extension("integrate", "_quadpack")._qagse

# dqk21's Kronrod abscissae xgk(1..10) on [-1, 1], as QUADPACK writes them;
# xgk(11) = 0 is the centre. The even ones are the Gauss abscissae.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
# Offsets of the 21 nodes from the centre in units of the half-length, in the
# order dqk21 evaluates them: the centre, centre -/+ the Gauss abscissae, then
# centre -/+ the other Kronrod abscissae.
_PANEL_OFFSETS = np.array([0.0] + [s * x for x in _XGK[1::2] + _XGK[0::2] for s in (-1.0, 1.0)])


def _panel_nodes(centre: float) -> np.ndarray:
    """The 21 nodes dqk21 evaluates on the dqagse panel of [0, 1] centred at
    centre, in that order.

    dqagse bisects [0, 1] exactly, so a panel centre is (2k+1) 2^-(L+1) and
    the panel's half-length is 2^-(L+1), the centre's lowest set bit. Each
    node rounds hlgth xgk(j) and then centre -/+ that product, as dqk21 does,
    so the nodes match at any depth, subnormal products included. A point
    that is no panel centre still gets 21 points around it, which the
    integrand may never ask for.
    """
    _, denominator = float(centre).as_integer_ratio()
    return centre + math.ldexp(1.0, 1 - denominator.bit_length()) * _PANEL_OFFSETS


@dataclass(frozen=True)
class IntegrationResult:
    """Outcome of one adaptive integration.

    ``converged`` is True only when the error estimate is at most
    DEFAULT_REL_TOL times the value; an exhausted subdivision budget yields an
    unconverged result, never an exception.
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
    # The exact call scipy.integrate.quad makes for a finite interval: no
    # extra arguments, full output, then the tolerances (no absolute one) and
    # the budget.
    value, abs_err, info, ier = _qagse(
        _guarded(f, lower, upper), lower, upper, (), 1, 0.0, DEFAULT_REL_TOL, DEFAULT_MAX_SUBDIVISIONS
    )
    value, abs_err = float(value), float(abs_err)
    # ier != 0 is QUADPACK's flag that the tolerance was not certified.
    converged = ier == 0 and abs_err <= DEFAULT_REL_TOL * abs(value)
    return IntegrationResult(value, abs_err, int(info["last"]), converged)


def integrate_unit_interval(f: Callable[[float], float]) -> IntegrationResult:
    """Integrate f over (0,1) adaptively with open (interior-node) rules."""
    return integrate_interval(f, 0.0, 1.0)


def beta(a: float, b: float) -> float:
    """Beta(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    if not (a > 0 and b > 0):
        raise DomainError(f"beta requires a, b > 0, got ({a}, {b})")
    # Work in log space so large arguments cannot overflow the quotient.
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
