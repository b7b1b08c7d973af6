"""Absolutely continuous distributions in quantile-native form.

Every measure in this library is a u-space integral over (0,1), so a
distribution is carried as (cdf, pdf, quantile, support) with an optional
closed form for f(F^{-1}(u)). Supported families: Uniform(a,b),
Exponential(rate), PowerSurvival(b) with survival (1-x)^b on (0,1), increasing
transformations Y = psi(X) of any of these, and Custom distributions supplied
as a quantile function plus density-at-quantile.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidTransformationError, ParseError

UNIFORM = "uniform"
EXPONENTIAL = "exponential"
POWER_SURVIVAL = "power_survival"
TRANSFORMED = "transformed"
CUSTOM = "custom"

# Distributions built by the factories below whose quantile and
# pdf_at_quantile return, on an array of levels, bit for bit the floats they
# return one level at a time; measures evaluates these a quadrature panel at
# a time. Membership is by identity: a Distribution built directly, even with
# a family tag from here, is not in it.
_ARRAY_EXACT: weakref.WeakSet = weakref.WeakSet()


def _array_exact(d: Distribution) -> Distribution:
    _ARRAY_EXACT.add(d)
    return d


@dataclass(frozen=True, eq=False)
class Distribution:
    """An absolutely continuous distribution.

    ``cdf``, ``pdf`` and ``quantile`` accept scalars or numpy arrays.
    ``pdf_at_quantile`` is the closed form for f(F^{-1}(u)) when the family
    admits one; given as None, it becomes pdf(quantile(u)). ``support_upper``
    may be +inf.
    """

    family_tag: str
    support_lower: float
    support_upper: float
    cdf: Callable
    pdf: Callable
    quantile: Callable
    pdf_at_quantile: Callable | None = None
    params: tuple = ()
    label: str = ""

    def __post_init__(self):
        if self.pdf_at_quantile is None:
            pdf, q = self.pdf, self.quantile
            object.__setattr__(self, "pdf_at_quantile", lambda u: pdf(q(u)))


@dataclass(frozen=True)
class Transformation:
    """An increasing map psi with psi(0) = 0, given with its derivative.

    ``psi_inverse`` may be omitted; the cdf and pdf of psi(X) then come from
    inverting its quantile.
    """

    name: str
    psi: Callable
    psi_prime: Callable
    psi_inverse: Callable | None = None

    def __post_init__(self):
        if float(self.psi(0.0)) != 0.0:
            raise InvalidTransformationError(
                f"transformation {self.name!r} must satisfy psi(0) = 0, "
                f"got {float(self.psi(0.0))!r}"
            )


def _label_number(x: float) -> str:
    """x as a label writes it: ``:g`` where that reads back as x, else repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _validated_u(u):
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"quantile level must lie strictly inside (0,1), got {u!r}")
    return arr


def _match_input(value, reference):
    if np.ndim(reference) == 0:
        return float(value)
    return value


def quantile(d: Distribution, u):
    """F^{-1}(u) for u strictly inside (0,1); scalar or array."""
    arr = _validated_u(u)
    return _match_input(d.quantile(arr), u)


def pdf_at_quantile(d: Distribution, u):
    """f(F^{-1}(u)), which is the closed form when registered, else pdf(quantile(u))."""
    return _match_input(d.pdf_at_quantile(_validated_u(u)), u)


def uniform(a: float = 0.0, b: float = 1.0) -> Distribution:
    """Uniform distribution on (a, b)."""
    a, b = float(a), float(b)
    if not b > a:
        raise DomainError(f"uniform needs b > a, got ({a}, {b})")
    width = b - a

    return _array_exact(Distribution(
        family_tag=UNIFORM,
        support_lower=a,
        support_upper=b,
        cdf=lambda x: np.clip((np.asarray(x, float) - a) / width, 0.0, 1.0),
        pdf=lambda x: np.where(
            (np.asarray(x, float) >= a) & (np.asarray(x, float) <= b), 1.0 / width, 0.0
        ),
        quantile=lambda u: a + np.asarray(u, float) * width,
        pdf_at_quantile=lambda u: np.full_like(np.asarray(u, float), 1.0 / width),
        params=(a, b),
        label=f"uniform:{_label_number(a)},{_label_number(b)}",
    ))


def exponential(rate: float) -> Distribution:
    """Exponential distribution with the given rate (quantile -ln(1-u)/rate)."""
    rate = float(rate)
    if not rate > 0:
        raise DomainError(f"exponential needs rate > 0, got {rate}")

    def cdf(x):
        x = np.asarray(x, float)
        return np.where(x > 0.0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0)

    def pdf(x):
        x = np.asarray(x, float)
        return np.where(x >= 0.0, rate * np.exp(-rate * np.maximum(x, 0.0)), 0.0)

    return _array_exact(Distribution(
        family_tag=EXPONENTIAL,
        support_lower=0.0,
        support_upper=math.inf,
        cdf=cdf,
        pdf=pdf,
        quantile=lambda u: -np.log1p(-np.asarray(u, float)) / rate,
        pdf_at_quantile=lambda u: rate * (1.0 - np.asarray(u, float)),
        params=(rate,),
        label=f"exp:{_label_number(rate)}",
    ))


def power_survival(b: float) -> Distribution:
    """Distribution on (0,1) with survival function (1-x)^b."""
    b = float(b)
    if not b > 0:
        raise DomainError(f"power_survival needs b > 0, got {b}")

    def cdf(x):
        x = np.asarray(x, float)
        inside = np.clip(x, 0.0, 1.0)
        return 1.0 - (1.0 - inside) ** b

    def pdf(x):
        x = np.asarray(x, float)
        return np.where((x >= 0.0) & (x <= 1.0), b * (1.0 - np.clip(x, 0.0, 1.0)) ** (b - 1.0), 0.0)

    exponent = 1.0 - 1.0 / b

    def pdf_at_quantile(u):
        u = np.asarray(u, float)
        if u.ndim == 0:
            return b * (1.0 - u) ** exponent
        # numpy's array power rounds differently from its scalar power (on
        # SIMD loops, and through sqrt at b = 2), so each element takes the
        # scalar power: an array gives the floats of one level at a time.
        return np.array([b * (1.0 - v) ** exponent for v in u.ravel()]).reshape(u.shape)

    return _array_exact(Distribution(
        family_tag=POWER_SURVIVAL,
        support_lower=0.0,
        support_upper=1.0,
        cdf=cdf,
        pdf=pdf,
        # 1-(1-u)^{1/b}, written through expm1/log1p to stay accurate near u=0.
        quantile=lambda u: -np.expm1(np.log1p(-np.asarray(u, float)) / b),
        pdf_at_quantile=pdf_at_quantile,
        params=(b,),
        label=f"powersurv:{_label_number(b)}",
    ))


def _inverted_quantile(quantile_fn: Callable, pdf_at_quantile_fn: Callable, lo: float, hi: float):
    """cdf and pdf of a distribution known by its increasing quantile and
    density-at-quantile on the support (lo, hi).

    cdf(x) halves (0,1) 64 times for every x at once, which leaves a bracket
    narrower than 1e-19. Each midpoint is capped at the largest double below
    1, so quantile_fn is never called at u = 0 or 1; where 1 - F(x) < 2^-53
    the cdf rounds to 1. pdf(x) is pdf_at_quantile_fn(cdf(x)) where the cdf
    lies strictly inside (0,1), else 0.
    """
    u_top = np.nextafter(1.0, 0.0)

    def cdf(x):
        x = np.asarray(x, float)
        u_lo, u_hi = np.zeros_like(x), np.ones_like(x)
        for _ in range(64):
            mid = np.minimum(0.5 * (u_lo + u_hi), u_top)
            below = quantile_fn(mid) < x
            u_lo = np.where(below, mid, u_lo)
            u_hi = np.where(below, u_hi, mid)
        return np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, 0.5 * (u_lo + u_hi)))

    def pdf(x):
        u = cdf(x)
        inside = (u > 0.0) & (u < 1.0)
        return np.where(inside, pdf_at_quantile_fn(np.where(inside, u, 0.5)), 0.0)

    return cdf, pdf


def custom(
    quantile_fn: Callable,
    pdf_at_quantile_fn: Callable,
    support_lower: float,
    support_upper: float,
    label: str = "custom",
) -> Distribution:
    """Build a distribution from a quantile function and density-at-quantile.

    Both take scalars or numpy arrays. The cdf inverts quantile_fn by
    bisection in u-space, and the pdf is pdf_at_quantile_fn composed with it.
    """
    lo, hi = float(support_lower), float(support_upper)
    quantile_arr = lambda u: np.asarray(quantile_fn(u), float)  # noqa: E731
    pdf_at_quantile_arr = lambda u: np.asarray(pdf_at_quantile_fn(u), float)  # noqa: E731
    cdf, pdf = _inverted_quantile(quantile_arr, pdf_at_quantile_arr, lo, hi)

    return Distribution(
        family_tag=CUSTOM,
        support_lower=lo,
        support_upper=hi,
        cdf=cdf,
        pdf=pdf,
        quantile=quantile_arr,
        pdf_at_quantile=pdf_at_quantile_arr,
        label=label,
    )


def _check_increasing_on_support(d: Distribution, t: Transformation) -> None:
    u = np.linspace(1e-6, 1.0 - 1e-6, 257)
    x = d.quantile(u)
    if np.isfinite(d.support_lower):
        x = np.concatenate(([d.support_lower], x))
    deriv = np.asarray(t.psi_prime(x), float)
    if not np.all(deriv > 0.0):
        raise InvalidTransformationError(
            f"transformation {t.name!r} is not increasing on the support "
            f"(psi_prime reached {float(np.min(deriv))!r})"
        )
    values = np.asarray(t.psi(x), float)
    if not np.all(np.diff(values) > 0.0):
        raise InvalidTransformationError(
            f"transformation {t.name!r} is not strictly increasing on the support grid"
        )


def transform(d: Distribution, t: Transformation) -> Distribution:
    """Distribution of Y = psi(X) for increasing psi with psi(0) = 0.

    Requires d.support_lower >= 0. The quantile and density-at-quantile of Y
    are closed forms in terms of X. With a registered psi_inverse the cdf is
    d.cdf(psi_inverse(y)) and the pdf d.pdf(x) / psi'(x) at that x; without
    one, both come from inverting the quantile of Y in u-space, as for custom.
    """
    if d.support_lower < 0:
        raise DomainError("transform requires a distribution supported on [0, inf)")
    _check_increasing_on_support(d, t)

    lower = float(t.psi(d.support_lower))
    upper = float(t.psi(d.support_upper)) if math.isfinite(d.support_upper) else math.inf

    def quantile_y(u):
        return np.asarray(t.psi(d.quantile(u)), float)

    def pdf_at_quantile_y(u):
        u_arr = np.asarray(u, float)
        return d.pdf_at_quantile(u_arr) / np.asarray(t.psi_prime(d.quantile(u_arr)), float)

    if t.psi_inverse is None:
        cdf, pdf = _inverted_quantile(quantile_y, pdf_at_quantile_y, lower, upper)
    else:
        inverse = lambda y: np.asarray(t.psi_inverse(y), float)  # noqa: E731

        def cdf(y):
            y_arr = np.asarray(y, float)
            clipped = np.clip(y_arr, lower, upper if math.isfinite(upper) else np.inf)
            result = d.cdf(inverse(clipped))
            result = np.where(y_arr <= lower, 0.0, result)
            if math.isfinite(upper):
                result = np.where(y_arr >= upper, 1.0, result)
            return result

        def pdf(y):
            y_arr = np.asarray(y, float)
            inside = (y_arr > lower) & (y_arr < upper)
            x = np.where(inside, inverse(np.where(inside, y_arr, lower)), d.support_lower)
            dens = d.pdf(x) / np.asarray(t.psi_prime(x), float)
            return np.where(inside, dens, 0.0)

    y = Distribution(
        family_tag=TRANSFORMED,
        support_lower=lower,
        support_upper=upper,
        cdf=cdf,
        pdf=pdf,
        quantile=quantile_y,
        pdf_at_quantile=pdf_at_quantile_y,
        label=f"transform:{t.name}({d.label})",
    )
    if d in _ARRAY_EXACT and (t is EXP_MINUS_ONE or t is IDENTITY):
        return _array_exact(y)
    return y


def _identity_psi(x):
    return np.asarray(x, float) + 0.0


def _identity_prime(x):
    return np.ones_like(np.asarray(x, float))


EXP_MINUS_ONE = Transformation("exp_minus_one", np.expm1, np.exp, np.log1p)
IDENTITY = Transformation("identity", _identity_psi, _identity_prime, _identity_psi)

TRANSFORMATIONS: dict[str, Transformation] = {
    EXP_MINUS_ONE.name: EXP_MINUS_ONE,
    IDENTITY.name: IDENTITY,
}


def parse_distribution(text: str) -> Distribution:
    """Parse a specification string.

    Grammar: ``uniform:a,b``, ``exp:lambda``, ``powersurv:b``, and
    ``transform:<name>(<base spec>)`` for a registered transformation.
    """
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"malformed distribution spec {text!r}")
    try:
        if head == "uniform":
            a_str, b_str = rest.split(",")
            return uniform(float(a_str), float(b_str))
        if head == "exp":
            return exponential(float(rest))
        if head == "powersurv":
            return power_survival(float(rest))
        if head == "transform":
            name, paren, inner = rest.partition("(")
            if not paren or not inner.endswith(")"):
                raise ParseError(f"malformed transform spec {text!r}")
            if name not in TRANSFORMATIONS:
                raise ParseError(f"unknown transformation {name!r}")
            return transform(parse_distribution(inner[:-1]), TRANSFORMATIONS[name])
    except ParseError:
        raise
    except (ValueError, DomainError) as exc:
        raise ParseError(f"bad distribution spec {text!r}: {exc}") from exc
    raise ParseError(f"unknown distribution family {head!r}")
