"""Analytic evaluation of weighted extropy measures.

All measures are u-space integrals against the quantile function Q and the
density-at-quantile f(Q(u)):

* weighted extropy of the density itself: -1/2 * E[w(Q(U)) f(Q(U))]
* cumulative past variant:     -1/2 * E[Lambda],  Lambda = u^2 w(Q)/f(Q)
* cumulative residual variant: -1/2 * E[Delta],   Delta = (1-u)^2 w(Q)/f(Q)

Sampling designs replace the single expectation by powers or products:
SRS raises the expectation to the design size n, maxRSSU (past) multiplies
E[Psi_i] with Psi_i = u^{2i} w/f over i = 1..n, and minRSSU (residual)
multiplies E[Phi_i] with Phi_i = (1-u)^{2i} w/f. A registry of closed forms
for the uniform, exponential, and power-survival families with power weights
serves as an independent oracle; quadrature is always the computed path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .distributions import EXPONENTIAL, POWER_SURVIVAL, UNIFORM, Distribution
from .errors import DivergenceError, DomainError
from .quadrature import DEFAULT_REL_TOL, IntegrationResult, gamma_beta, integrate_unit_interval
from .weights import POWER, WeightFunction, eval_weight

PAST = "past"
RESIDUAL = "residual"
PLAIN = "plain_extropy_weighted"

SINGLE = "single"
SRS = "SRS"
MIN_RSSU = "minRSSU"
MAX_RSSU = "maxRSSU"

VARIANTS = (PAST, RESIDUAL, PLAIN)
DESIGNS = (SINGLE, SRS, MIN_RSSU, MAX_RSSU)

LAMBDA = "Lambda"
DELTA = "Delta"
PSI_I = "Psi_i"
PHI_I = "Phi_i"
DELTA_GWJ = "delta_gwj"

_INDEXED_KINDS = (PSI_I, PHI_I)
_KINDS = (LAMBDA, DELTA, PSI_I, PHI_I, DELTA_GWJ)


@dataclass(frozen=True)
class MeasureSpec:
    """Which measure to evaluate: variant, sampling design, design size."""

    variant: str
    design: str = SINGLE
    n: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.design not in DESIGNS:
            raise DomainError(f"unknown design {self.design!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"design size must be a positive integer, got {self.n!r}")
        if self.design == SINGLE and self.n != 1:
            raise DomainError("design 'single' requires n = 1")
        if self.variant == PAST and self.design == MIN_RSSU:
            raise DomainError("the past variant is defined for maxRSSU, not minRSSU")
        if self.variant == RESIDUAL and self.design == MAX_RSSU:
            raise DomainError("the residual variant is defined for minRSSU, not maxRSSU")
        if self.variant == PLAIN and self.design != SINGLE:
            raise DomainError("the plain weighted extropy has no sampling-design form here")


@dataclass(frozen=True)
class IntegrandKind:
    """Identifies one u-space integrand; order_index is the i of Psi_i/Phi_i."""

    kind: str
    order_index: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown integrand kind {self.kind!r}")
        if self.kind in _INDEXED_KINDS:
            if not (isinstance(self.order_index, int) and self.order_index >= 1):
                raise DomainError(f"{self.kind} needs order_index >= 1, got {self.order_index!r}")
        elif self.order_index is not None:
            raise DomainError(f"{self.kind} takes no order_index")


@dataclass(frozen=True)
class MeasureReport:
    """A measure value with its per-factor quadrature diagnostics."""

    value: float
    factor_results: tuple[IntegrationResult, ...]
    quadrature_error: float


def make_integrand(d: Distribution, w: WeightFunction, kind: IntegrandKind) -> Callable:
    """Scalar integrand over u in (0,1) for the requested kind."""
    density = d.pdf_at_quantile

    if kind.kind == DELTA_GWJ:

        def integrand(u: float) -> float:
            return eval_weight(w, d.quantile(u)) * float(density(u))

        return integrand

    # Lambda and Delta are the i = 1 members of Psi_i and Phi_i.
    exponent = 2 * (kind.order_index or 1)
    survival_side = kind.kind in (DELTA, PHI_I)

    def integrand(u: float) -> float:
        base = (1.0 - u) if survival_side else u
        return base**exponent * eval_weight(w, d.quantile(u)) / float(density(u))

    return integrand


def _factor(
    d: Distribution, w: WeightFunction, kind: IntegrandKind, variant: str
) -> IntegrationResult:
    """One u-space expectation; an unconverged integral is a divergence."""
    res = integrate_unit_interval(make_integrand(d, w, kind))
    if not res.converged:
        i = kind.order_index
        where = "" if i is None else f" (factor i={i})"
        raise DivergenceError(
            f"quadrature did not converge for the {variant} integrand{where}; "
            f"error estimate {res.abs_error_estimate:.3e} after {res.subdivisions} subdivisions",
            variant=variant,
            factor_index=i,
            error_estimate=res.abs_error_estimate,
        )
    return res


def gwj(d: Distribution, w: WeightFunction) -> float:
    """Weighted extropy of the density: -1/2 * int w(Q(u)) f(Q(u)) du."""
    return measure_report(d, w, MeasureSpec(PLAIN)).value


def gw_cumulative(d: Distribution, w: WeightFunction, variant: str) -> float:
    """Weighted cumulative extropy, past (-1/2 E[Lambda]) or residual (-1/2 E[Delta])."""
    if variant not in (PAST, RESIDUAL):
        raise DomainError(f"variant must be past or residual, got {variant!r}")
    return measure_report(d, w, MeasureSpec(variant)).value


def measure_report(d: Distribution, w: WeightFunction, spec: MeasureSpec) -> MeasureReport:
    """Evaluate a measure and keep each factor's quadrature result.

    The value is -1/2 times one factor raised to n (single, SRS, plain) or
    times the product of the n factors Psi_i or Phi_i (maxRSSU, minRSSU).
    The reported quadrature_error bounds |value - exact| to first order. It
    propagates each factor's error through the power or product and the -1/2;
    a factor's error is the larger of the quadrature estimate, which can
    undershoot on smooth integrands, and rel_tol * |factor|, the accuracy a
    converged integral is certified to.
    """
    if spec.variant == PAST and w.family_tag == POWER and not math.isfinite(d.support_upper):
        # u -> 1 sends Q(u) to the upper endpoint; with an unbounded power
        # weight the past integrands grow like w(Q)/f(Q) and the integral is
        # infinite.
        raise DivergenceError(
            "past-variant integral diverges: power weight with unbounded support "
            f"({d.label or d.family_tag})",
            variant=PAST,
        )
    powered = spec.design in (SINGLE, SRS)
    if spec.variant == PLAIN:
        kinds = [IntegrandKind(DELTA_GWJ)]
    elif powered:
        kinds = [IntegrandKind(LAMBDA if spec.variant == PAST else DELTA)]
    else:
        kind_name = PSI_I if spec.variant == PAST else PHI_I
        kinds = [IntegrandKind(kind_name, i) for i in range(1, spec.n + 1)]
    factors = tuple(_factor(d, w, kind, spec.variant) for kind in kinds)

    values = [res.value for res in factors]
    errors = [max(res.abs_error_estimate, DEFAULT_REL_TOL * abs(res.value)) for res in factors]
    if powered:
        value = values[0] ** spec.n
        error = 0.5 * spec.n * abs(values[0]) ** (spec.n - 1) * errors[0]
    else:
        value = math.prod(values)
        error = 0.5 * sum(
            err * math.prod(abs(v) for j, v in enumerate(values) if j != i)
            for i, err in enumerate(errors)
        )
    return MeasureReport(-0.5 * value, factors, error)


def gw_design_measure(d: Distribution, w: WeightFunction, spec: MeasureSpec) -> float:
    """The design-level measure: SRS power form or RSSU product form."""
    return measure_report(d, w, spec).value


def closed_form(d: Distribution, w: WeightFunction, spec: MeasureSpec) -> float | None:
    """Registered closed-form value, or None when no formula covers the input.

    Coverage (power weights x^m only): standard uniform SRS (both variants)
    and maxRSSU/minRSSU; exponential minRSSU; power-survival minRSSU. The
    uniform minRSSU form uses the exponent n on Gamma(m+1), the one the
    u-space integral gives.
    """
    if w.family_tag != POWER:
        return None
    (m,) = w.params
    variant, design, n = spec.variant, spec.design, spec.n
    if variant == PLAIN:
        return None
    if design == SINGLE:
        design = SRS

    if d.family_tag == UNIFORM and d.params == (0.0, 1.0):
        if design == SRS:
            if variant == PAST:
                return -0.5 * (1.0 / (m + 3.0)) ** n
            factor = 1.0 / (m + 1.0) - 2.0 / (m + 2.0) + 1.0 / (m + 3.0)
            return -0.5 * factor**n
        if design == MAX_RSSU:
            product = 1.0
            for i in range(1, n + 1):
                product *= 1.0 / (2.0 * i + m + 1.0)
            return -0.5 * product
        if design == MIN_RSSU:
            product = gamma_beta("gamma", m + 1.0) ** n
            for i in range(1, n + 1):
                product *= gamma_beta("gamma", 2.0 * i + 1.0) / gamma_beta("gamma", 2.0 * i + m + 2.0)
            return -0.5 * product

    if d.family_tag == EXPONENTIAL and variant == RESIDUAL and design == MIN_RSSU:
        (rate,) = d.params
        scale = gamma_beta("gamma", m + 1.0) / (2.0 * rate) ** (m + 1.0)
        return -0.5 * scale**n * (1.0 / math.factorial(n)) ** (m + 1.0)

    if d.family_tag == POWER_SURVIVAL and variant == RESIDUAL and design == MIN_RSSU:
        (b,) = d.params
        product = 1.0
        for i in range(1, n + 1):
            product *= gamma_beta("beta", m + 1.0, 2.0 * i * b + 1.0)
        return -0.5 * product

    return None
