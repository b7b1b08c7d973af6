"""Numerical verification of stochastic orders and the theorem suite for
the weighted cumulative extropies.

Order checks are grid certificates, not proofs: each check evaluates the
defining inequality of the order on a finite grid and reports the worst
signed margin. Violations smaller than 1e-9 in magnitude count as equality.

Theorem reports are hypothesis gated. Every hypothesis is checked
numerically (weight monotonicity, weight domination, a stochastic order,
endpoint conditions, sign conditions on transformations); the conclusion
inequality is then evaluated through the measures engine. A report passes
only when every hypothesis holds and the conclusion margin clears the
tolerance. A failed hypothesis never yields a "violated" verdict: the
conclusion margin is still reported, with a note that it is not asserted.
A hypothesis margin inside the tolerance band [-1e-9, 0) marks the whole
report inconclusive rather than silently passing it.

Measures that diverge are folded in as extended reals: a divergent side
counts as -inf, and two divergent sides compare as equal. The shape-order
hypotheses (superadditive, star, convex transform) enter conclusions only
through their implication of the dispersive order, which is the form the
comparison proofs actually consume; check_lemma1 verifies that implication
on concrete pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    Distribution,
    Transformation,
    pdf_at_quantile,
    quantile,
    transform,
)
from .errors import DivergenceError, DomainError, IntegrandError, InvalidTransformationError
from .measures import (
    MAX_RSSU,
    MIN_RSSU,
    PAST,
    RESIDUAL,
    SINGLE,
    SRS,
    MeasureSpec,
    gw_design_measure,
    measure_report,
)
from .weights import DEFAULT_GRID_POINTS, WeightFunction, eval_weight

TOLERANCE = 1e-9

DISP = "disp"
CONVEX_TRANSFORM = "convex_transform"
STAR = "star"
SUPERADDITIVE = "superadditive"
ST = "st"
ORDER_KINDS = (DISP, CONVEX_TRANSFORM, STAR, SUPERADDITIVE, ST)

T2_PAST = "T2.1"
T2_RESIDUAL = "T2.2"
T3_PSI = "T3.ψ"
T4_MAX_PSI = "T4.max-ψ"
T4_MIN_PSI = "T4.min-ψ"
T4_MAX_SRS = "T4.max≥SRS"
T4_MIN_SRS = "T4.min≥SRS"
T5_MAX = "T5.1"
T5_MIN = "T5.3"
T6_MIN_MONO = "T6.min-mono"
T6_MAX_MONO = "T6.max-mono"

THEOREM_IDS = (
    T2_PAST,
    T2_RESIDUAL,
    T3_PSI,
    T4_MAX_PSI,
    T4_MIN_PSI,
    T4_MAX_SRS,
    T4_MIN_SRS,
    T5_MAX,
    T5_MIN,
    T6_MIN_MONO,
    T6_MAX_MONO,
)

@dataclass(frozen=True)
class OrderVerdict:
    """Grid verdict for one stochastic order between X and Y."""

    kind: str
    holds_X_le_Y: bool
    grid: int
    worst_violation: float


@dataclass(frozen=True)
class HypothesisCheck:
    """One checked hypothesis: a pass flag plus the signed margin, when grid based."""

    name: str
    passed: bool
    margin: float | None = None
    note: str = ""


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one theorem check on one configuration."""

    theorem_id: str
    subject: str
    hypotheses_checked: tuple[HypothesisCheck, ...]
    conclusion_margin: float
    passed: bool
    inconclusive: bool = False
    note: str = ""

    @property
    def hypotheses_ok(self) -> bool:
        return all(h.passed for h in self.hypotheses_checked)

    @property
    def gated_failure(self) -> bool:
        """True when every hypothesis held cleanly yet the conclusion failed."""
        return self.hypotheses_ok and not self.inconclusive and not self.passed


@dataclass(frozen=True)
class Lemma1Report:
    """Shape orders vs dispersive order on one pair with the density condition."""

    applicable: bool
    density_condition: bool
    shape_verdicts: dict
    disp: OrderVerdict | None
    consistent: bool


@dataclass(frozen=True)
class TheoremCase:
    """One suite configuration: a distribution, optionally a partner or a
    transformation, one or two weights, and the design sizes to sweep."""

    dX: Distribution
    w1: WeightFunction
    dY: Distribution | None = None
    transformation: Transformation | None = None
    w2: WeightFunction | None = None
    n_values: tuple[int, ...] = (1, 2, 3)
    grid_points: int = 257


def _interior_grid(grid_points: int) -> np.ndarray:
    return np.arange(1, grid_points + 1, dtype=float) / (grid_points + 1)


def _finite_or_raise(values: np.ndarray, u: np.ndarray) -> np.ndarray:
    values = np.asarray(values, float)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        u = np.asarray(u, float)
        at = float(u[bad]) if u.shape == values.shape else math.nan
        raise IntegrandError(at, float(values[bad]))
    return values


def _require_origin_support(d: Distribution, kind: str) -> None:
    if d.support_lower != 0.0:
        raise DomainError(
            f"the {kind} order check needs supports starting at 0, got {d.support_lower}"
        )


def check_order(kind: str, dX: Distribution, dY: Distribution, grid_points: int = 257) -> OrderVerdict:
    """Grid certificate for X <=_kind Y; worst_violation is the smallest margin."""
    if kind not in ORDER_KINDS:
        raise DomainError(f"unknown order kind {kind!r}")
    if grid_points < 10:
        raise DomainError(f"need at least 10 grid points, got {grid_points}")
    grid_points = int(grid_points)
    if dX is dY:
        # The defining maps coincide identically, so every margin is exactly 0.
        return OrderVerdict(kind, True, grid_points, 0.0)

    u = _interior_grid(grid_points)
    used = grid_points
    if kind == DISP:
        margins = _finite_or_raise(pdf_at_quantile(dX, u) - pdf_at_quantile(dY, u), u)
    elif kind == ST:
        margins = _finite_or_raise(quantile(dY, u) - quantile(dX, u), u)
    elif kind == CONVEX_TRANSFORM:
        x = _finite_or_raise(quantile(dX, u), u)
        h = _finite_or_raise(quantile(dY, u), u)
        dx = np.diff(x)
        if np.any(dx <= 0.0):
            bad = int(np.argmin(dx))
            raise IntegrandError(float(u[bad]), float(dx[bad]))
        slopes = np.diff(h) / dx
        margins = np.diff(slopes)
    elif kind == STAR:
        _require_origin_support(dX, kind)
        _require_origin_support(dY, kind)
        x = _finite_or_raise(quantile(dX, u), u)
        h = _finite_or_raise(quantile(dY, u), u)
        margins = np.diff(h / x)
    else:
        _require_origin_support(dX, kind)
        _require_origin_support(dY, kind)
        used = min(grid_points, 64)
        u = _interior_grid(used)
        x = _finite_or_raise(quantile(dX, u), u)
        h = _finite_or_raise(quantile(dY, u), u)
        j, k = np.triu_indices(used)
        pair_cdf = np.asarray(dX.cdf(x[j] + x[k]), float)
        inside = pair_cdf < 1.0 - 1e-9
        if not np.any(inside):
            margins = np.asarray([math.inf])
        else:
            margins = quantile(dY, pair_cdf[inside]) - (h[j] + h[k])[inside]
            margins = _finite_or_raise(margins, pair_cdf[inside])

    worst = float(np.min(margins))
    return OrderVerdict(kind, worst >= -TOLERANCE, used, worst)


def _density_near_origin(d: Distribution) -> float:
    return float(pdf_at_quantile(d, 1e-9))


def check_lemma1(dX: Distribution, dY: Distribution, grid_points: int = 64) -> Lemma1Report:
    """Check that a shape order plus f(0) >= g(0) > 0 yields the dispersive order.

    Pairs whose supports do not both start at 0 are reported not applicable
    (consistent vacuously).
    """
    if dX.support_lower != 0.0 or dY.support_lower != 0.0:
        return Lemma1Report(False, False, {}, None, True)
    f0 = _density_near_origin(dX)
    g0 = _density_near_origin(dY)
    density_condition = g0 > 0.0 and f0 >= g0 - TOLERANCE
    shape = {
        kind: check_order(kind, dX, dY, grid_points)
        for kind in (SUPERADDITIVE, STAR, CONVEX_TRANSFORM)
    }
    disp = check_order(DISP, dX, dY, grid_points)
    premise = density_condition and any(v.holds_X_le_Y for v in shape.values())
    return Lemma1Report(
        applicable=True,
        density_condition=density_condition,
        shape_verdicts=shape,
        disp=disp,
        consistent=(not premise) or disp.holds_X_le_Y,
    )


def _measure_extended(d: Distribution, w: WeightFunction, spec: MeasureSpec) -> float:
    try:
        return gw_design_measure(d, w, spec)
    except DivergenceError:
        return -math.inf


def _claim_margin(lhs: float, rhs: float) -> tuple[float, str]:
    """Margin of the claim lhs >= rhs with divergent sides as -inf."""
    if math.isinf(lhs) and math.isinf(rhs):
        return 0.0, "both sides diverge to -inf; equal in the extended reals"
    if math.isinf(rhs):
        return math.inf, "right side diverges to -inf"
    if math.isinf(lhs):
        return -math.inf, "left side diverges to -inf"
    return lhs - rhs, ""


def _finish(
    theorem_id: str,
    subject: str,
    hypotheses: list[HypothesisCheck],
    conclusion_margin: float,
    note: str = "",
) -> TheoremReport:
    hyp_ok = all(h.passed for h in hypotheses)
    inconclusive = any(
        h.margin is not None and -TOLERANCE <= h.margin < 0.0 for h in hypotheses
    )
    passed = bool(hyp_ok and not inconclusive and conclusion_margin >= -TOLERANCE)
    if not hyp_ok and not note:
        note = "hypotheses not satisfied; conclusion reported, not asserted"
    elif inconclusive and not note:
        note = "a hypothesis margin sits inside the tolerance band"
    return TheoremReport(
        theorem_id=theorem_id,
        subject=subject,
        hypotheses_checked=tuple(hypotheses),
        conclusion_margin=conclusion_margin,
        passed=passed,
        inconclusive=inconclusive,
        note=note,
    )


def _x_range(*dists: Distribution) -> tuple[float, float]:
    lo = min(d.support_lower for d in dists)
    hi = max(float(quantile(d, 0.995)) for d in dists)
    return lo, hi


def _weight_decreasing_check(w: WeightFunction, lo: float, hi: float) -> HypothesisCheck:
    xs = np.linspace(lo, hi, DEFAULT_GRID_POINTS)
    values = eval_weight(w, xs)
    margin = -float(np.max(np.diff(values)))
    return HypothesisCheck(
        name=f"{w.label} weakly decreasing",
        passed=margin >= -TOLERANCE,
        margin=margin,
        note=f"grid={DEFAULT_GRID_POINTS} on [{lo:g},{hi:g}]",
    )


def _weight_dominated_check(
    w1: WeightFunction, w2: WeightFunction, lo: float, hi: float
) -> HypothesisCheck:
    if w1 is w2:
        return HypothesisCheck("w1 <= w2", True, 0.0, "w2 is w1")
    xs = np.linspace(lo, hi, DEFAULT_GRID_POINTS)
    margin = float(np.min(eval_weight(w2, xs) - eval_weight(w1, xs)))
    return HypothesisCheck(
        "w1 <= w2", margin >= -TOLERANCE, margin, f"grid={DEFAULT_GRID_POINTS} on [{lo:g},{hi:g}]"
    )


def _comparison_reports(case: TheoremCase) -> list[TheoremReport]:
    dX, dY = case.dX, case.dY
    w1 = case.w1
    w2 = case.w2 if case.w2 is not None else case.w1
    lo, hi = _x_range(dX, dY)

    disp = check_order(DISP, dX, dY, case.grid_points)
    upper_x, upper_y = dX.support_upper, dY.support_upper
    endpoints_ok = math.isfinite(upper_x) and math.isfinite(upper_y) and upper_x == upper_y
    hypotheses = [
        HypothesisCheck(
            "equal finite right endpoints",
            endpoints_ok,
            None,
            f"u_X={upper_x:g}, u_Y={upper_y:g}",
        ),
        _weight_decreasing_check(w1, lo, hi),
        _weight_dominated_check(w1, w2, lo, hi),
        HypothesisCheck(
            "X <=_disp Y", disp.holds_X_le_Y, disp.worst_violation, f"grid={disp.grid}"
        ),
    ]
    base_note = (
        ""
        if endpoints_ok
        else "beyond stated hypotheses: right endpoints unequal or infinite; "
        "conclusion computed, not asserted"
    )

    def report(theorem_id: str, spec: MeasureSpec, n_label: str) -> TheoremReport:
        lhs = _measure_extended(dX, w1, spec)
        rhs = _measure_extended(dY, w2, spec)
        margin, margin_note = _claim_margin(lhs, rhs)
        subject = f"X={dX.label} vs Y={dY.label}, w1={w1.label}, w2={w2.label}{n_label}"
        note = "; ".join(part for part in (base_note, margin_note) if part)
        return _finish(theorem_id, subject, hypotheses, margin, note)

    reports = [
        report(T2_PAST, MeasureSpec(PAST, SINGLE, 1), ""),
        report(T2_RESIDUAL, MeasureSpec(RESIDUAL, SINGLE, 1), ""),
    ]
    for n in case.n_values:
        reports.append(report(T5_MAX, MeasureSpec(PAST, MAX_RSSU, n), f", n={n}"))
        reports.append(report(T5_MIN, MeasureSpec(RESIDUAL, MIN_RSSU, n), f", n={n}"))
    return reports


def _psi_condition_check(
    dX: Distribution, t: Transformation, w: WeightFunction, grid_points: int
) -> tuple[str | None, HypothesisCheck]:
    u = _interior_grid(grid_points)
    x = np.asarray(quantile(dX, u), float)
    transformed = eval_weight(w, np.asarray(t.psi(x), float)) * np.asarray(t.psi_prime(x), float)
    delta = transformed - eval_weight(w, x)
    low, high = float(np.min(delta)), float(np.max(delta))
    if low >= -TOLERANCE:
        return "ge", HypothesisCheck(
            "w(psi(x))psi'(x) - w(x) single-signed", True, low, "sign: >= everywhere"
        )
    if high <= TOLERANCE:
        return "le", HypothesisCheck(
            "w(psi(x))psi'(x) - w(x) single-signed", True, -high, "sign: <= everywhere"
        )
    return None, HypothesisCheck(
        "w(psi(x))psi'(x) - w(x) single-signed",
        False,
        max(low, -high),
        f"mixed signs on the grid (min {low:.3e}, max {high:.3e})",
    )


def _psi_reports(case: TheoremCase) -> list[TheoremReport]:
    dX, t, w = case.dX, case.transformation, case.w1
    try:
        dY = transform(dX, t)
        psi_check = HypothesisCheck(f"psi={t.name} increasing with psi(0)=0", True, None)
    except (InvalidTransformationError, DomainError) as exc:
        psi_check = HypothesisCheck(
            f"psi={t.name} increasing with psi(0)=0", False, None, str(exc)
        )
        subject = f"X={dX.label}, Y=psi(X), psi={t.name}, w={w.label}"
        return [
            _finish(tid, subject, [psi_check], math.nan)
            for tid in (T3_PSI, T4_MAX_PSI, T4_MIN_PSI)
        ]

    side, side_check = _psi_condition_check(dX, t, w, case.grid_points)
    hypotheses = [psi_check, side_check]
    reports = []
    for n in case.n_values:
        for theorem_id, spec in (
            (T3_PSI, MeasureSpec(PAST, SRS, n)),
            (T4_MAX_PSI, MeasureSpec(PAST, MAX_RSSU, n)),
            (T4_MIN_PSI, MeasureSpec(RESIDUAL, MIN_RSSU, n)),
        ):
            subject = f"X={dX.label}, Y=psi(X), psi={t.name}, w={w.label}, n={n}"
            if side is None:
                reports.append(_finish(theorem_id, subject, hypotheses, math.nan))
                continue
            mx = _measure_extended(dX, w, spec)
            my = _measure_extended(dY, w, spec)
            if side == "ge":
                margin, note = _claim_margin(mx, my)
            else:
                margin, note = _claim_margin(my, mx)
            reports.append(_finish(theorem_id, subject, hypotheses, margin, note))
    return reports


def _dominance_reports(case: TheoremCase) -> list[TheoremReport]:
    dX, w = case.dX, case.w1
    reports = []
    for n in case.n_values:
        if n < 2:
            continue
        for theorem_id, variant, design in (
            (T4_MAX_SRS, PAST, MAX_RSSU),
            (T4_MIN_SRS, RESIDUAL, MIN_RSSU),
        ):
            lhs = _measure_extended(dX, w, MeasureSpec(variant, design, n))
            rhs = _measure_extended(dX, w, MeasureSpec(variant, SRS, n))
            margin, note = _claim_margin(lhs, rhs)
            subject = f"X={dX.label}, w={w.label}, n={n}"
            reports.append(
                _finish(theorem_id, subject, [HypothesisCheck("n >= 2", True, None)], margin, note)
            )
    return reports


def _monotone_reports(case: TheoremCase) -> list[TheoremReport]:
    dX, w = case.dX, case.w1
    u = _interior_grid(case.grid_points)
    ratio = eval_weight(w, np.asarray(quantile(dX, u), float)) / np.asarray(
        pdf_at_quantile(dX, u), float
    )
    ratio_margin = 1.0 - float(np.max(ratio))
    ratio_check = HypothesisCheck(
        "w(Q(u))/f(Q(u)) <= 1",
        ratio_margin >= -TOLERANCE,
        ratio_margin,
        f"grid={case.grid_points}",
    )
    n_lo, n_hi = min(case.n_values), max(case.n_values)
    subject = f"X={dX.label}, w={w.label}, n={n_lo}..{n_hi}"
    reports = []
    for theorem_id, variant, design in (
        (T6_MIN_MONO, RESIDUAL, MIN_RSSU),
        (T6_MAX_MONO, PAST, MAX_RSSU),
    ):
        if n_hi == n_lo:
            reports.append(
                _finish(theorem_id, subject, [ratio_check], math.inf, "single n; nothing to compare")
            )
            continue
        try:
            top = measure_report(dX, w, MeasureSpec(variant, design, n_hi))
        except DivergenceError:
            reports.append(
                _finish(
                    theorem_id,
                    subject,
                    [ratio_check],
                    0.0,
                    "every design size diverges to -inf; equal in the extended reals",
                )
            )
            continue
        factors = [r.value for r in top.factor_results]
        measures = {}
        running = 1.0
        for i, value in enumerate(factors, start=1):
            running *= value
            measures[i] = -0.5 * running
        margins = []
        for n in range(n_lo, n_hi):
            margins.append(measures[n + 1] - measures[n])
            # Proof-level bound on the step ratio: E[factor_{n+1}] <= 1/(2n+3).
            margins.append(1.0 / (2.0 * n + 3.0) - factors[n])
        reports.append(_finish(theorem_id, subject, [ratio_check], min(margins)))
    return reports


def run_theorem_suite(cases=None) -> list[TheoremReport]:
    """Run every applicable theorem over the cases (default: default_suite())."""
    if cases is None:
        cases = default_suite()
    reports: list[TheoremReport] = []
    for case in cases:
        if case.dY is not None:
            reports.extend(_comparison_reports(case))
        if case.transformation is not None:
            reports.extend(_psi_reports(case))
        reports.extend(_dominance_reports(case))
        reports.extend(_monotone_reports(case))
    return reports


def default_suite() -> list[TheoremCase]:
    """Built-in configurations covering every theorem id.

    The bounded uniform pair satisfies the comparison hypotheses strictly;
    the exponential pair has infinite right endpoints, so its comparison
    reports carry the beyond-stated-hypotheses note. The transformed cases
    exercise the sign-condition theorems, including divergent past-variant
    measures on the exponential.
    """
    from .distributions import EXP_MINUS_ONE, exponential, uniform
    from .weights import exp_decay_weight, power_weight

    return [
        TheoremCase(dX=uniform(1.0, 2.0), w1=exp_decay_weight(1.0), dY=uniform(0.0, 2.0)),
        TheoremCase(dX=exponential(1.0), w1=exp_decay_weight(1.0), dY=exponential(0.5)),
        TheoremCase(dX=uniform(0.0, 1.0), w1=power_weight(1.0), transformation=EXP_MINUS_ONE),
        TheoremCase(dX=exponential(1.0), w1=power_weight(1.0), transformation=EXP_MINUS_ONE),
        TheoremCase(dX=uniform(0.0, 1.0), w1=power_weight(2.0), n_values=(1, 2, 3, 4, 5)),
    ]
