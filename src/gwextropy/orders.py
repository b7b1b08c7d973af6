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
    _FactorSequence,
)
from .weights import DEFAULT_GRID_POINTS, WeightFunction, _on_grid, eval_weight

TOLERANCE = 1e-9
_SUITE_GRID_POINTS = 257  # quantile levels of the suite's order, psi-sign and density-ratio checks
_LEMMA1_GRID_POINTS = 64  # quantile levels of check_lemma1's order checks

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


def _interior_grid(grid_points: int) -> np.ndarray:
    return np.arange(1, grid_points + 1, dtype=float) / (grid_points + 1)


def _finite_or_raise(values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """values as floats, or IntegrandError at the first non-finite one, named by
    its level in u: the levels the values were computed at, in their shape."""
    values = np.asarray(values, float)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise IntegrandError(float(u[bad]), float(values[bad]))
    return values


def check_order(kind: str, dX: Distribution, dY: Distribution, grid_points: int = 257) -> OrderVerdict:
    """Grid certificate for X <=_kind Y; worst_violation is the smallest margin."""
    if kind not in ORDER_KINDS:
        raise DomainError(f"unknown order kind {kind!r}")
    if grid_points < 10:
        raise DomainError(f"need at least 10 grid points, got {grid_points}")
    grid_points = int(grid_points)
    if kind in (STAR, SUPERADDITIVE):
        for d in (dX, dY):
            if d.support_lower != 0.0:
                raise DomainError(
                    f"the {kind} order check needs supports starting at 0, got {d.support_lower}"
                )

    used = min(grid_points, 64) if kind == SUPERADDITIVE else grid_points
    u = _interior_grid(used)
    if kind == DISP:
        margins = _finite_or_raise(pdf_at_quantile(dX, u) - pdf_at_quantile(dY, u), u)
    elif kind == ST:
        margins = _finite_or_raise(quantile(dY, u) - quantile(dX, u), u)
    else:
        # The shape orders read the map x -> G^-1(F(x)) through both quantile grids.
        x = _finite_or_raise(quantile(dX, u), u)
        h = _finite_or_raise(quantile(dY, u), u)
        if kind == CONVEX_TRANSFORM:
            dx = np.diff(x)
            if np.any(dx <= 0.0):
                at = float(u[int(np.argmin(dx))])
                raise DomainError(
                    f"quantile Q(u) of {dX.label or dX.family_tag} does not increase at u={at!r}; "
                    f"the {kind} order needs a strictly increasing quantile"
                )
            margins = np.diff(np.diff(h) / dx)
        elif kind == STAR:
            margins = np.diff(h / x)
        else:
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


def check_lemma1(dX: Distribution, dY: Distribution) -> Lemma1Report:
    """Check that a shape order plus f(0) >= g(0) > 0 yields the dispersive order.

    Pairs whose supports do not both start at 0 are reported not applicable
    (consistent vacuously).
    """
    if dX.support_lower != 0.0 or dY.support_lower != 0.0:
        return Lemma1Report(False, False, {}, None, True)
    f0 = float(pdf_at_quantile(dX, 1e-9))
    g0 = float(pdf_at_quantile(dY, 1e-9))
    density_condition = g0 > 0.0 and f0 >= g0 - TOLERANCE
    shape = {
        kind: check_order(kind, dX, dY, _LEMMA1_GRID_POINTS)
        for kind in (SUPERADDITIVE, STAR, CONVEX_TRANSFORM)
    }
    disp = check_order(DISP, dX, dY, _LEMMA1_GRID_POINTS)
    premise = density_condition and any(v.holds_X_le_Y for v in shape.values())
    return Lemma1Report(
        applicable=True,
        density_condition=density_condition,
        shape_verdicts=shape,
        disp=disp,
        consistent=(not premise) or disp.holds_X_le_Y,
    )


def _sequence(sequences: dict, d: Distribution, w: WeightFunction, variant: str) -> _FactorSequence:
    key = (d, w, variant)
    if key not in sequences:  # built on a miss only
        sequences[key] = _FactorSequence(d, w, variant)
    return sequences[key]


def _measure_extended(sequences: dict, d: Distribution, w: WeightFunction, spec: MeasureSpec) -> float:
    try:
        return _sequence(sequences, d, w, spec.variant).report(spec).value
    except DivergenceError:
        return -math.inf


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


def _compare(
    sequences: dict,
    theorem_id: str,
    subject: str,
    hypotheses: list[HypothesisCheck],
    lhs: tuple,
    rhs: tuple,
    note: str = "",
    swap: bool = False,
) -> TheoremReport:
    """Report on the claim lhs >= rhs, each side a (d, w, spec) triple whose
    measure counts as -inf when it diverges. The sides are measured in argument
    order; swap claims rhs >= lhs without changing that order."""
    left = _measure_extended(sequences, *lhs)
    right = _measure_extended(sequences, *rhs)
    if swap:
        left, right = right, left
    if math.isinf(left) and math.isinf(right):
        margin, margin_note = 0.0, "both sides diverge to -inf; equal in the extended reals"
    elif math.isinf(right):
        margin, margin_note = math.inf, "right side diverges to -inf"
    elif math.isinf(left):
        margin, margin_note = -math.inf, "left side diverges to -inf"
    else:
        margin, margin_note = left - right, ""
    note = "; ".join(part for part in (note, margin_note) if part)
    return _finish(theorem_id, subject, hypotheses, margin, note)


def _margin_check(name: str, margin: float, note: str) -> HypothesisCheck:
    """A grid hypothesis that holds when its worst margin clears -TOLERANCE."""
    return HypothesisCheck(name, margin >= -TOLERANCE, margin, note)


def _weight_checks(
    w1: WeightFunction, w2: WeightFunction, lo: float, hi: float
) -> list[HypothesisCheck]:
    """w1 weakly decreasing and w1 <= w2, on the one grid every weight check reads."""
    note = f"grid={DEFAULT_GRID_POINTS} on [{lo:g},{hi:g}]"
    on_w1 = _on_grid(w1, lo, hi)
    rise = float(np.max(np.diff(on_w1)))
    decreasing = _margin_check(f"{w1.label} weakly decreasing", -rise, note)
    if w1 is w2:
        return [decreasing, HypothesisCheck("w1 <= w2", True, 0.0, "w2 is w1")]
    gap = float(np.min(_on_grid(w2, lo, hi) - on_w1))
    return [decreasing, _margin_check("w1 <= w2", gap, note)]


def _comparison_reports(case: TheoremCase, sequences: dict) -> list[TheoremReport]:
    dX, dY = case.dX, case.dY
    w1 = case.w1
    w2 = case.w2 if case.w2 is not None else case.w1
    lo = min(dX.support_lower, dY.support_lower)
    hi = max(float(quantile(dX, 0.995)), float(quantile(dY, 0.995)))

    disp = check_order(DISP, dX, dY, _SUITE_GRID_POINTS)
    upper_x, upper_y = dX.support_upper, dY.support_upper
    endpoints_ok = math.isfinite(upper_x) and math.isfinite(upper_y) and upper_x == upper_y
    hypotheses = [
        HypothesisCheck(
            "equal finite right endpoints", endpoints_ok, None, f"u_X={upper_x:g}, u_Y={upper_y:g}"
        ),
        *_weight_checks(w1, w2, lo, hi),
        _margin_check("X <=_disp Y", disp.worst_violation, f"grid={disp.grid}"),
    ]
    note = (
        ""
        if endpoints_ok
        else "beyond stated hypotheses: right endpoints unequal or infinite; "
        "conclusion computed, not asserted"
    )
    rows = [(T2_PAST, PAST, SINGLE, 1), (T2_RESIDUAL, RESIDUAL, SINGLE, 1)]
    for n in case.n_values:
        rows += [(T5_MAX, PAST, MAX_RSSU, n), (T5_MIN, RESIDUAL, MIN_RSSU, n)]
    reports = []
    for theorem_id, variant, design, n in rows:
        spec = MeasureSpec(variant, design, n)
        n_label = "" if design == SINGLE else f", n={n}"
        subject = f"X={dX.label} vs Y={dY.label}, w1={w1.label}, w2={w2.label}{n_label}"
        sides = (dX, w1, spec), (dY, w2, spec)
        reports.append(_compare(sequences, theorem_id, subject, hypotheses, *sides, note))
    return reports


def _psi_condition_check(
    dX: Distribution, t: Transformation, w: WeightFunction
) -> tuple[str | None, HypothesisCheck]:
    u = _interior_grid(_SUITE_GRID_POINTS)
    x = np.asarray(quantile(dX, u), float)
    transformed = eval_weight(w, np.asarray(t.psi(x), float)) * np.asarray(t.psi_prime(x), float)
    delta = transformed - eval_weight(w, x)
    low, high = float(np.min(delta)), float(np.max(delta))
    name = "w(psi(x))psi'(x) - w(x) single-signed"
    if low >= -TOLERANCE:
        return "ge", _margin_check(name, low, "sign: >= everywhere")
    if high <= TOLERANCE:
        return "le", _margin_check(name, -high, "sign: <= everywhere")
    return None, _margin_check(
        name, max(low, -high), f"mixed signs on the grid (min {low:.3e}, max {high:.3e})"
    )


def _psi_reports(case: TheoremCase, sequences: dict) -> list[TheoremReport]:
    dX, t, w = case.dX, case.transformation, case.w1
    psi_name = f"psi={t.name} increasing with psi(0)=0"
    try:
        dY = transform(dX, t)
    except (InvalidTransformationError, DomainError) as exc:
        psi_check = HypothesisCheck(psi_name, False, None, str(exc))
        subject = f"X={dX.label}, Y=psi(X), psi={t.name}, w={w.label}"
        return [
            _finish(tid, subject, [psi_check], math.nan)
            for tid in (T3_PSI, T4_MAX_PSI, T4_MIN_PSI)
        ]

    side, side_check = _psi_condition_check(dX, t, w)
    hypotheses = [HypothesisCheck(psi_name, True, None), side_check]
    swap = side == "le"
    reports = []
    for n in case.n_values:
        for theorem_id, variant, design in (
            (T3_PSI, PAST, SRS),
            (T4_MAX_PSI, PAST, MAX_RSSU),
            (T4_MIN_PSI, RESIDUAL, MIN_RSSU),
        ):
            spec = MeasureSpec(variant, design, n)
            subject = f"X={dX.label}, Y=psi(X), psi={t.name}, w={w.label}, n={n}"
            if side is None:
                reports.append(_finish(theorem_id, subject, hypotheses, math.nan))
                continue
            sides = (dX, w, spec), (dY, w, spec)
            reports.append(_compare(sequences, theorem_id, subject, hypotheses, *sides, swap=swap))
    return reports


def _dominance_reports(case: TheoremCase, sequences: dict) -> list[TheoremReport]:
    dX, w = case.dX, case.w1
    hypotheses = [HypothesisCheck("n >= 2", True, None)]
    reports = []
    for n in case.n_values:
        if n < 2:
            continue
        for theorem_id, variant, design in (
            (T4_MAX_SRS, PAST, MAX_RSSU),
            (T4_MIN_SRS, RESIDUAL, MIN_RSSU),
        ):
            lhs = (dX, w, MeasureSpec(variant, design, n))
            rhs = (dX, w, MeasureSpec(variant, SRS, n))
            subject = f"X={dX.label}, w={w.label}, n={n}"
            reports.append(_compare(sequences, theorem_id, subject, hypotheses, lhs, rhs))
    return reports


def _monotone_reports(case: TheoremCase, sequences: dict) -> list[TheoremReport]:
    dX, w = case.dX, case.w1
    u = _interior_grid(_SUITE_GRID_POINTS)
    x = np.asarray(quantile(dX, u), float)
    ratio = eval_weight(w, x) / np.asarray(pdf_at_quantile(dX, u), float)
    ratio_margin = 1.0 - float(np.max(ratio))
    ratio_check = _margin_check("w(Q(u))/f(Q(u)) <= 1", ratio_margin, f"grid={_SUITE_GRID_POINTS}")
    n_lo, n_hi = min(case.n_values), max(case.n_values)
    subject = f"X={dX.label}, w={w.label}, n={n_lo}..{n_hi}"
    sizes = range(n_lo, n_hi + 1) if n_hi > n_lo else ()  # one size measures nothing
    reports = []
    for theorem_id, variant, design in (
        (T6_MIN_MONO, RESIDUAL, MIN_RSSU),
        (T6_MAX_MONO, PAST, MAX_RSSU),
    ):
        chain = [_measure_extended(sequences, dX, w, MeasureSpec(variant, design, n)) for n in sizes]
        # A factor sequence ends at its first divergent factor, so a chain that
        # diverges does so from some n on, and a finite step into -inf fails.
        if not chain:
            margin, note = math.inf, "single n; nothing to compare"
        elif chain[0] == -math.inf:
            margin, note = 0.0, "every design size diverges to -inf; equal in the extended reals"
        elif chain[-1] == -math.inf:
            first = n_lo + chain.index(-math.inf)
            margin, note = -math.inf, f"design sizes n >= {first} diverge to -inf"
        else:
            factors = _sequence(sequences, dX, w, variant).results
            margins = []
            for n, lo, hi in zip(range(n_lo, n_hi), chain, chain[1:]):
                # Proof-level bound on the step ratio: E[factor_{n+1}] <= 1/(2n+3).
                margins += [hi - lo, 1.0 / (2.0 * n + 3.0) - factors[n].value]
            margin, note = min(margins), ""
        reports.append(_finish(theorem_id, subject, [ratio_check], margin, note))
    return reports


def run_theorem_suite(cases=None) -> list[TheoremReport]:
    """Run every applicable theorem over the cases (default: default_suite())."""
    if cases is None:
        cases = default_suite()
    reports: list[TheoremReport] = []
    # One factor sequence per (distribution, weight, variant): each factor is
    # integrated once per run, whichever reports need it, and w(Q(u)), f(Q(u))
    # once per sequence and node.
    sequences: dict = {}
    for case in cases:
        if case.dY is not None:
            reports.extend(_comparison_reports(case, sequences))
        if case.transformation is not None:
            reports.extend(_psi_reports(case, sequences))
        reports.extend(_dominance_reports(case, sequences))
        reports.extend(_monotone_reports(case, sequences))
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
