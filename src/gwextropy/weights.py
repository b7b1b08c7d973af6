"""Nonnegative weight functions and the monotonicity checks that gate
the comparison theorems.

Families: Power(m) with w(x) = x^m for m > 0, Constant(c) with c >= 0,
ExpDecay(a) with w(x) = e^{-ax} for a > 0, and Custom callables. A weight
carries a monotonicity hint so that grid checks on a flat weight can still
resolve a direction.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ParseError, WeightValidityError

POWER = "power"
CONSTANT = "constant"
EXP_DECAY = "exp_decay"
CUSTOM = "custom"

INCREASING = "increasing"
DECREASING = "decreasing"
NEITHER = "neither"
UNKNOWN = "unknown"

DEFAULT_GRID_POINTS = 512

# Weights built by the factories below whose eval_weight on an array returns
# bit for bit the floats it returns one point at a time. Membership is by
# identity, as for distributions._ARRAY_EXACT.
_ARRAY_EXACT: weakref.WeakSet = weakref.WeakSet()


def _array_exact(w: WeightFunction) -> WeightFunction:
    _ARRAY_EXACT.add(w)
    return w


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
    if not m > 0:
        raise DomainError(f"power weight needs m > 0, got {m}")

    def _eval(x):
        arr = np.asarray(x, float)
        if (float(arr) < 0.0) if arr.ndim == 0 else np.any(arr < 0.0):
            raise DomainError(f"power weight is defined for x >= 0, got {x!r}")
        return arr**m

    return _array_exact(WeightFunction(_eval, POWER, INCREASING, (m,), f"power:{m:g}"))


def constant_weight(c: float = 1.0) -> WeightFunction:
    """w(x) = c with c >= 0.

    Flat weights satisfy the decreasing-weight hypotheses of the comparison
    theorems, so the hint says decreasing.
    """
    c = float(c)
    if c < 0:
        raise DomainError(f"constant weight needs c >= 0, got {c}")

    def _eval(x):
        return np.full_like(np.asarray(x, float), c)

    return _array_exact(WeightFunction(_eval, CONSTANT, DECREASING, (c,), f"const:{c:g}"))


def exp_decay_weight(a: float) -> WeightFunction:
    """w(x) = e^{-ax} with a > 0."""
    a = float(a)
    if not a > 0:
        raise DomainError(f"exp decay weight needs a > 0, got {a}")

    def _eval(x):
        return np.exp(-a * np.asarray(x, float))

    return _array_exact(WeightFunction(_eval, EXP_DECAY, DECREASING, (a,), f"expdecay:{a:g}"))


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


def _on_grid(w: WeightFunction, lo: float, hi: float, grid_points: int = DEFAULT_GRID_POINTS):
    """w on grid_points evenly spaced points of [lo, hi]; the grid every weight check reads."""
    return eval_weight(w, np.linspace(lo, hi, int(grid_points)))


def check_monotone_weight(
    w: WeightFunction, lo: float, hi: float, grid_points: int = DEFAULT_GRID_POINTS
) -> str:
    """Grid verdict on the direction of w over [lo, hi].

    Returns "increasing", "decreasing", or "neither" (both a strict rise and
    a strict fall observed). A grid with no strict movement falls back to the
    weight's hint, and to "decreasing" when the hint is unknown, since a flat
    weight satisfies the weakly decreasing hypotheses.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got ({lo}, {hi})")
    if grid_points < 2:
        raise DomainError(f"need at least 2 grid points, got {grid_points}")
    steps = np.diff(_on_grid(w, lo, hi, grid_points))
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


def parse_weight(text: str) -> WeightFunction:
    """Parse ``power:m``, ``const:c``, or ``expdecay:a``."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"malformed weight spec {text!r}")
    try:
        if head == "power":
            return power_weight(float(rest))
        if head == "const":
            return constant_weight(float(rest))
        if head == "expdecay":
            return exp_decay_weight(float(rest))
    except (ValueError, DomainError) as exc:
        raise ParseError(f"bad weight spec {text!r}: {exc}") from exc
    raise ParseError(f"unknown weight family {head!r}")
