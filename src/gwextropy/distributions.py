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

# Distributions and weights built by the library's factories whose array
# evaluation (quantile and pdf_at_quantile, or eval_weight) returns bit for
# bit the floats of one point at a time; measures evaluates these a
# quadrature panel at a time. Membership is by identity: a Distribution or
# WeightFunction built directly, even with a family tag from here, is not in it.
_ARRAY_EXACT: weakref.WeakSet = weakref.WeakSet()


def _array_exact(obj):
    _ARRAY_EXACT.add(obj)
    return obj


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


def _label(head: str, *params: float) -> str:
    """The spec ``head:p1,...,pk``: each number ``:g`` where that reads back exactly, else repr."""
    return f"{head}:" + ",".join(f"{x:g}" if float(f"{x:g}") == x else repr(x) for x in params)


def _parse_spec(text: str, kind: str, families: dict):
    """What a ``head:p1,...,pk`` spec names. families maps each head to its
    factory and k; a k of None hands the text after the colon to the factory."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"malformed {kind} spec {text!r}")
    if head not in families:
        raise ParseError(f"unknown {kind} family {head!r}")
    build, arity = families[head]
    try:
        if arity is None:
            return build(rest)
        params = rest.split(",")
        if len(params) != arity:
            raise ValueError(f"{head} takes {arity} parameter{'s' * (arity > 1)}, got {len(params)}")
        return build(*map(float, params))
    except ParseError:
        raise
    except ValueError as exc:  # DomainError included
        raise ParseError(f"bad {kind} spec {text!r}: {exc}") from exc


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
    if not -math.inf < a < b < math.inf:
        raise DomainError(f"uniform needs finite a < b, got ({a}, {b})")
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
        label=_label("uniform", a, b),
    ))


def exponential(rate: float) -> Distribution:
    """Exponential distribution with the given rate (quantile -ln(1-u)/rate)."""
    rate = float(rate)
    if not 0 < rate < math.inf:
        raise DomainError(f"exponential needs finite rate > 0, got {rate}")

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
        label=_label("exp", rate),
    ))


def power_survival(b: float) -> Distribution:
    """Distribution on (0,1) with survival function (1-x)^b."""
    b = float(b)
    if not 0 < b < math.inf:
        raise DomainError(f"power_survival needs finite b > 0, got {b}")

    def cdf(x):
        x = np.asarray(x, float)
        inside = np.clip(x, 0.0, 1.0)
        return 1.0 - (1.0 - inside) ** b

    def pdf(x):
        x = np.asarray(x, float)
        return np.where((x >= 0.0) & (x <= 1.0), b * (1.0 - np.clip(x, 0.0, 1.0)) ** (b - 1.0), 0.0)

    exponent = 1.0 - 1.0 / b

    def pdf_at_quantile(u):
        # numpy's array power rounds differently from its scalar power (on
        # SIMD loops, and through sqrt at b = 2), so each element takes the
        # scalar power: an array gives the floats of one level at a time.
        u = np.asarray(u, float)
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
        label=_label("powersurv", b),
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
    # psi cannot rise where Q(u) rounds to one x on neighbouring levels, as near powersurv:0.01's top
    values = np.asarray(t.psi(x), float)
    if not np.all((np.diff(values) > 0.0) | (np.diff(x) == 0.0)):
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
    return _array_exact(y) if d in _ARRAY_EXACT and (t is EXP_MINUS_ONE or t is IDENTITY) else y


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


def _parse_transform(rest: str) -> Distribution:
    name, paren, inner = rest.partition("(")
    if not paren or not inner.endswith(")"):
        raise ParseError(f"malformed transform spec {'transform:' + rest!r}")
    if name not in TRANSFORMATIONS:
        raise ParseError(f"unknown transformation {name!r}")
    return transform(parse_distribution(inner[:-1]), TRANSFORMATIONS[name])


_FAMILIES = {"uniform": (uniform, 2), "exp": (exponential, 1), "powersurv": (power_survival, 1),
             "transform": (_parse_transform, None)}


def parse_distribution(text: str) -> Distribution:
    """Parse a specification string.

    Grammar: ``uniform:a,b``, ``exp:lambda``, ``powersurv:b``, and
    ``transform:<name>(<base spec>)`` for a registered transformation.
    """
    return _parse_spec(text, "distribution", _FAMILIES)
