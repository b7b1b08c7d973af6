"""Analytic evaluation of weighted extropy measures.

All measures are u-space integrals against the quantile function Q and the
density-at-quantile f(Q(u)):

* weighted extropy of the density itself: -1/2 * E[w(Q(U)) f(Q(U))]
* cumulative past variant:     -1/2 * E[Lambda],  Lambda = u^2 w(Q)/f(Q)
* cumulative residual variant: -1/2 * E[Delta],   Delta = (1-u)^2 w(Q)/f(Q)

Sampling designs replace the single expectation by powers or products:
SRS raises the expectation to the design size n, maxRSSU (past) multiplies
E[Psi_i] with Psi_i = u^{2i} w/f over i = 1..n, and minRSSU (residual)
multiplies E[Phi_i] with Phi_i = (1-u)^{2i} w/f, so Lambda = Psi_1 and
Delta = Phi_1. A registry of closed forms for the uniform, exponential, and
power-survival families with power weights serves as an independent oracle;
quadrature is always the computed path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import _ARRAY_EXACT, EXPONENTIAL, POWER_SURVIVAL, UNIFORM, Distribution
from .errors import DivergenceError, DomainError, WeightValidityError
from .quadrature import DEFAULT_REL_TOL, IntegrationResult, _panel_nodes, beta, integrate_unit_interval
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

PSI_I = "Psi_i"
PHI_I = "Phi_i"
DELTA_GWJ = "delta_gwj"

_INDEXED_KINDS = (PSI_I, PHI_I)
_KINDS = (PSI_I, PHI_I, DELTA_GWJ)


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


def make_integrand(
    d: Distribution, w: WeightFunction, kind: IntegrandKind, *, nodes: dict | None = None
) -> Callable:
    """Scalar integrand over u in (0,1) for the requested kind.

    nodes, when given, maps u to the pair (w(Q(u)), f(Q(u))): the integrand
    reads a node's pair from it or computes the pair and adds it. Integrands
    of one distribution and weight that share a map evaluate the weight and
    the density once per node, and return the same floats as without one.
    Without a map every call computes the pair afresh, one node at a time.

    With a map, a node missing from it is taken as the centre of the QUADPACK
    panel just started, and one array evaluation adds the pairs of the
    panel's 21 nodes. Only families whose array evaluation gives the floats
    of the one-node path bit for bit, built by the library's own factories,
    are evaluated so: uniform, exponential, power-survival and their
    EXP_MINUS_ONE and IDENTITY transforms, with power, constant and exp-decay
    weights. Custom and directly built inputs stay one node at a time.
    """
    density = d.pdf_at_quantile
    name = d.label or d.family_tag
    by_panel = nodes is not None and d in _ARRAY_EXACT and w in _ARRAY_EXACT
    # Nodes of tried panels left without a pair go straight to the one-node path.
    tried = set()

    def add_panel(u: float) -> None:
        panel = _panel_nodes(u)
        panel = panel[(panel > 0.0) & (panel < 1.0)]
        # Any floating-point flag, or a weight that rejects a point, leaves the
        # whole panel to the one-node path, so each numpy warning and each
        # error still comes from the node that raises it there.
        try:
            with np.errstate(all="raise"):
                q = d.quantile(panel)
                wq = eval_weight(w, q)
                fq = density(panel)
        except (FloatingPointError, ValueError):
            tried.update(panel.tolist())
            return
        keep = np.isfinite(q) & np.isfinite(fq) & (fq > 0.0)
        nodes.update(zip(panel[keep].tolist(), zip(wq[keep].tolist(), fq[keep].tolist())))
        tried.update(panel[~keep].tolist())

    # Without a map no node is known: a fresh dict's get always misses.
    known = {}.get if nodes is None else nodes.get

    def kernel(u: float) -> tuple[float, float]:
        """The pair of a node not in the map."""
        if by_panel and u not in tried:
            add_panel(u)
            pair = nodes.get(u)
            if pair is not None:
                return pair
        q = d.quantile(u)
        try:
            wq = eval_weight(w, q)
        except WeightValidityError as exc:
            if math.isfinite(q):
                raise
            message = f"quantile Q(u) of {name} is {float(q)!r} at u={u!r}; it must be finite"
            raise DomainError(message) from exc
        pair = (wq, float(density(u)))
        # A NaN density passes on to the quadrature's IntegrandError.
        if pair[1] <= 0.0:
            raise DomainError(f"density f(Q(u)) of {name} is {pair[1]!r} at u={u!r}; it must be > 0")
        if nodes is not None:
            nodes[u] = pair
        return pair

    if kind.kind == DELTA_GWJ:

        def integrand(u: float) -> float:
            wq, fq = known(u) or kernel(u)
            return wq * fq

        return integrand

    exponent = 2 * kind.order_index
    survival_side = kind.kind == PHI_I

    def integrand(u: float) -> float:
        base = (1.0 - u) if survival_side else u
        wq, fq = known(u) or kernel(u)
        return base**exponent * wq / fq

    return integrand


def gwj(d: Distribution, w: WeightFunction) -> float:
    """Weighted extropy of the density: -1/2 * int w(Q(u)) f(Q(u)) du."""
    return measure_report(d, w, MeasureSpec(PLAIN)).value


def gw_cumulative(d: Distribution, w: WeightFunction, variant: str) -> float:
    """Weighted cumulative extropy, past (-1/2 E[Lambda]) or residual (-1/2 E[Delta])."""
    if variant not in (PAST, RESIDUAL):
        raise DomainError(f"variant must be past or residual, got {variant!r}")
    return measure_report(d, w, MeasureSpec(variant)).value


class _FactorSequence:
    """Factors 1, 2, ... of one (distribution, weight, variant), integrated in
    order on first use and kept: E[Psi_i] (past), E[Phi_i] (residual), or the
    single E[w(Q) f(Q)] (plain). Every factor integrand reads and fills the
    sequence's node map of (w(Q(u)), f(Q(u))) pairs, a QUADPACK panel at a
    time for the families make_integrand names and one node at a time else.

    The first factor that diverges ends the sequence. The past variant with a
    power weight on an unbounded support diverges from factor 1 on: u -> 1
    sends Q(u) to the upper endpoint, where the integrands grow like w(Q)/f(Q).
    """

    def __init__(self, d: Distribution, w: WeightFunction, variant: str):
        self.d, self.w, self.variant = d, w, variant
        self.nodes: dict = {}
        self.results: list[IntegrationResult] = []
        self.unconverged: IntegrationResult | None = None
        self.rejected = variant == PAST and w.family_tag == POWER and not math.isfinite(d.support_upper)

    def _divergence(self, spec: MeasureSpec) -> DivergenceError:
        if self.rejected:
            return DivergenceError(
                "past-variant integral diverges: power weight with unbounded support "
                f"({self.d.label or self.d.family_tag})",
                variant=PAST,
            )
        # Only the RSSU designs name the factor; the others read factor 1 alone.
        i = len(self.results) + 1 if spec.design in (MIN_RSSU, MAX_RSSU) else None
        where = "" if i is None else f" (factor i={i})"
        res = self.unconverged
        return DivergenceError(
            f"quadrature did not converge for the {self.variant} integrand{where}; "
            f"error estimate {res.abs_error_estimate:.3e} after {res.subdivisions} subdivisions",
            variant=self.variant,
            factor_index=i,
            error_estimate=res.abs_error_estimate,
        )

    def _factors(self, spec: MeasureSpec, count: int) -> tuple[IntegrationResult, ...]:
        while len(self.results) < count:
            if self.rejected or self.unconverged is not None:
                raise self._divergence(spec)
            if self.variant == PLAIN:
                kind = IntegrandKind(DELTA_GWJ)
            else:
                kind = IntegrandKind(PSI_I if self.variant == PAST else PHI_I, len(self.results) + 1)
            res = integrate_unit_interval(make_integrand(self.d, self.w, kind, nodes=self.nodes))
            if res.converged:
                self.results.append(res)
            else:
                self.unconverged = res
        return tuple(self.results[:count])

    def report(self, spec: MeasureSpec) -> MeasureReport:
        """The measure of spec, from factor 1 (single, SRS, plain) or factors 1..n (RSSU).

        The value is -1/2 times factor 1 raised to n, or times the product of
        factors 1..n. The reported quadrature_error bounds |value - exact| to
        first order. It propagates each factor's error through the power or
        product and the -1/2; a factor's error is the larger of the quadrature
        estimate, which can undershoot on smooth integrands, and
        DEFAULT_REL_TOL * |factor|, the accuracy a converged integral is
        certified to.
        """
        powered = spec.design in (SINGLE, SRS)
        factors = self._factors(spec, 1 if powered else spec.n)
        values = [res.value for res in factors]
        errors = [max(res.abs_error_estimate, DEFAULT_REL_TOL * abs(res.value)) for res in factors]
        if powered:
            try:
                value = values[0] ** spec.n
                error = 0.5 * spec.n * abs(values[0]) ** (spec.n - 1) * errors[0]
            except OverflowError:  # the power, or n, beyond the float range: the limit as n -> inf
                value = values[0] ** math.inf
                error = 0.0 if value == 0.0 else math.inf
        else:
            value = math.prod(values)
            error = 0.5 * sum(
                err * math.prod(abs(v) for j, v in enumerate(values) if j != i)
                for i, err in enumerate(errors)
            )
        return MeasureReport(-0.5 * value, factors, error)


def measure_report(d: Distribution, w: WeightFunction, spec: MeasureSpec) -> MeasureReport:
    """Evaluate a measure and keep each factor's quadrature result."""
    return _FactorSequence(d, w, spec.variant).report(spec)


def gw_design_measure(d: Distribution, w: WeightFunction, spec: MeasureSpec) -> float:
    """The design-level measure: SRS power form or RSSU product form."""
    return measure_report(d, w, spec).value


def closed_form(d: Distribution, w: WeightFunction, spec: MeasureSpec) -> float | None:
    """Registered closed-form value, or None when no formula covers the input
    or the formula leaves the float range.

    Coverage (power weights x^m only): standard uniform SRS (both variants)
    and maxRSSU/minRSSU; exponential minRSSU; power-survival minRSSU. The
    uniform minRSSU form uses the exponent n on Gamma(m+1), the one the
    u-space integral gives.

    The formulas are evaluated as written, so a term beyond the float range
    (Gamma(m+1) for m > 170, n! for n > 170, (2 rate)^(m+1) rounding to 0)
    gives None even where the value itself is a float.
    """
    try:
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
                product = math.gamma(m + 1.0) ** n
                for i in range(1, n + 1):
                    product *= math.gamma(2.0 * i + 1.0) / math.gamma(2.0 * i + m + 2.0)
                return -0.5 * product

        if d.family_tag == EXPONENTIAL and variant == RESIDUAL and design == MIN_RSSU:
            (rate,) = d.params
            scale = math.gamma(m + 1.0) / (2.0 * rate) ** (m + 1.0)
            return -0.5 * scale**n * (1.0 / math.factorial(n)) ** (m + 1.0)

        if d.family_tag == POWER_SURVIVAL and variant == RESIDUAL and design == MIN_RSSU:
            (b,) = d.params
            product = 1.0
            for i in range(1, n + 1):
                product *= beta(m + 1.0, 2.0 * i * b + 1.0)
            return -0.5 * product

        return None
    except (OverflowError, ZeroDivisionError):
        return None
