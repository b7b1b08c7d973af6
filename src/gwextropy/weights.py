"""Nonnegative weight functions and the monotonicity checks that gate
the comparison theorems.

Families, each parameter finite: Power(m) with w(x) = x^m for m > 0,
Constant(c) with c >= 0, ExpDecay(a) with w(x) = e^{-ax} for a > 0, and Custom
callables. A weight carries a monotonicity hint so that grid checks on a flat
weight can still resolve a direction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import _array_exact, _label, _parse_spec
from .errors import DomainError, WeightValidityError

POWER = "power"
CONSTANT = "constant"
EXP_DECAY = "exp_decay"
CUSTOM = "custom"

INCREASING = "increasing"
DECREASING = "decreasing"
NEITHER = "neither"
UNKNOWN = "unknown"

DEFAULT_GRID_POINTS = 512

@dataclass(frozen=True, eq=False)
class WeightFunction:
    """A nonnegative weight w(x) with family metadata."""

    eval: Callable
    family_tag: str
    monotonicity_hint: str = UNKNOWN
    params: tuple = ()
    label: str = "custom"


def power_weight(m: float) -> WeightFunction:
    """w(x) = x^m on x >= 0, m > 0."""
    m = float(m)
    if not 0 < m < math.inf:
        raise DomainError(f"power weight needs finite m > 0, got {m}")

    def _eval(x):
        arr = np.asarray(x, float)
        if (float(arr) < 0.0) if arr.ndim == 0 else np.any(arr < 0.0):
            raise DomainError(f"power weight is defined for x >= 0, got {x!r}")
        return arr**m

    return _array_exact(WeightFunction(_eval, POWER, INCREASING, (m,), _label("power", m)))


def constant_weight(c: float = 1.0) -> WeightFunction:
    """w(x) = c with c >= 0.

    Flat weights satisfy the decreasing-weight hypotheses of the comparison
    theorems, so the hint says decreasing.
    """
    c = float(c)
    if not 0 <= c < math.inf:
        raise DomainError(f"constant weight needs finite c >= 0, got {c}")

    def _eval(x):
        return np.full_like(np.asarray(x, float), c)

    return _array_exact(WeightFunction(_eval, CONSTANT, DECREASING, (c,), _label("const", c)))


def exp_decay_weight(a: float) -> WeightFunction:
    """w(x) = e^{-ax} with a > 0."""
    a = float(a)
    if not 0 < a < math.inf:
        raise DomainError(f"exp decay weight needs finite a > 0, got {a}")

    def _eval(x):
        return np.exp(-a * np.asarray(x, float))

    return _array_exact(WeightFunction(_eval, EXP_DECAY, DECREASING, (a,), _label("expdecay", a)))


def custom_weight(fn: Callable, monotonicity_hint: str = UNKNOWN, label: str = "custom") -> WeightFunction:
    """An arbitrary callable as a weight; eval_weight checks what it returns."""
    if monotonicity_hint not in (INCREASING, DECREASING, UNKNOWN):
        raise DomainError(f"unknown monotonicity hint {monotonicity_hint!r}")
    return WeightFunction(fn, CUSTOM, monotonicity_hint, (), label)


def eval_weight(w: WeightFunction, x):
    """w(x), checked nonnegative; scalar in, float out; array in, array out.

    The weight must return real numbers (bool, int, uint or float) in the
    shape of x, finite and >= 0; anything else raises WeightValidityError.
    """
    value = w.eval(x)
    # A scalar is checked as a float: quadrature calls this once per node, and
    # numpy reductions on a 0-d array cost several microseconds each.
    if isinstance(x, float) or np.ndim(x) == 0:
        if isinstance(value, float) or _real_scalar(value):
            value = float(value)
            if not (math.isfinite(value) and value >= 0.0):
                raise _invalid(w, value)
            return value
    # Any other output for a scalar gets the dtype and shape checks below.
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):  # e.g. a ragged list
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise WeightValidityError(f"weight {w.label!r} produced a non-numeric value {value!r}")
    value = array.astype(float, copy=False)
    if value.shape != np.shape(x):
        raise WeightValidityError(
            f"weight {w.label!r} produced shape {value.shape} for an input of shape {np.shape(x)}"
        )
    if np.any(value < 0.0) or not np.all(np.isfinite(value)):
        raise _invalid(w, value[~(np.isfinite(value) & (value >= 0.0))][0])
    return value


def _real_scalar(value) -> bool:
    """A real number, or a 0-d array of one (what numpy returns for a 0-d input)."""
    if isinstance(value, np.ndarray):
        return value.ndim == 0 and value.dtype.kind in "biuf"
    return isinstance(value, numbers.Real)


def _invalid(w: WeightFunction, bad) -> WeightValidityError:
    return WeightValidityError(
        f"weight {w.label!r} produced an invalid value {float(bad)!r} (must be finite and >= 0)"
    )


def _on_grid(w: WeightFunction, lo: float, hi: float):
    """w at DEFAULT_GRID_POINTS even steps over [lo, hi]: the grid every weight check reads."""
    return eval_weight(w, np.linspace(lo, hi, DEFAULT_GRID_POINTS))


def check_monotone_weight(w: WeightFunction, lo: float, hi: float) -> str:
    """Grid verdict on the direction of w over [lo, hi], on DEFAULT_GRID_POINTS points.

    Returns "increasing", "decreasing", or "neither" (both a strict rise and
    a strict fall observed). A grid with no strict movement falls back to the
    weight's hint, and to "decreasing" when the hint is unknown, since a flat
    weight satisfies the weakly decreasing hypotheses.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got ({lo}, {hi})")
    steps = np.diff(_on_grid(w, lo, hi))
    rises = bool(np.any(steps > 0.0))
    falls = bool(np.any(steps < 0.0))
    if rises and falls:
        return NEITHER
    if rises:
        return INCREASING
    if falls:
        return DECREASING
    if w.monotonicity_hint != UNKNOWN:
        return w.monotonicity_hint
    return DECREASING


_FAMILIES = {"power": (power_weight, 1), "const": (constant_weight, 1), "expdecay": (exp_decay_weight, 1)}


def parse_weight(text: str) -> WeightFunction:
    """Parse ``power:m``, ``const:c``, or ``expdecay:a``."""
    return _parse_spec(text, "weight", _FAMILIES)
