"""Command-line front end.

Subcommands: measure (analytic values as JSON), simulate (sample CSV),
estimate (empirical estimators on a CSV of observations), verify (theorem
suite as a JSON array), converge (estimator error ladder as CSV).

Exit codes: 0 success, 1 a theorem conclusion failed under passing
hypotheses, 2 usage or specification errors and failed allocations, 3
divergent computation or a float overflow (Python's float ** and math
functions raise OverflowError).

Numbers in JSON are rounded to 12 significant digits, and non-finite ones are
the strings "inf", "-inf" and "nan"; CSV uses the shortest round-trip
representation. Reruns with identical flags produce byte-identical output;
converge rows are sorted by (sample_size, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .distributions import parse_distribution
from .errors import (
    DivergenceError,
    ExtropyError,
    InsufficientDataError,
    ParseError,
)
from .estimators import (
    EstimatorConfig,
    SILVERMAN,
    estimate as run_estimator,
    resolve_bandwidth,
)
from .measures import (
    MAX_RSSU,
    MIN_RSSU,
    PAST,
    RESIDUAL,
    SINGLE,
    SRS,
    MeasureSpec,
    closed_form,
    gw_cumulative,
    measure_report,
)
from .orders import run_theorem_suite
from .sampling import derive_seed, draw_design
from .weights import parse_weight, power_weight

_DESIGNS = {"single": SINGLE, "srs": SRS, "minrssu": MIN_RSSU, "maxrssu": MAX_RSSU}
_SAMPLING_DESIGNS = ["srs", "minrssu", "maxrssu"]


def _json_number(x):
    """x to 12 significant digits; a non-finite x as a string, which keeps the JSON valid."""
    if x is None:
        return None
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.12g}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_measure(args) -> int:
    d = parse_distribution(args.dist)
    w = parse_weight(args.weight)
    spec = MeasureSpec(args.variant, _DESIGNS[args.design], args.n)
    report = measure_report(d, w, spec)
    payload = {"value": _json_number(report.value)}
    registered = closed_form(d, w, spec)
    if registered is not None:
        payload["closed_form"] = _json_number(registered)
    payload["quadrature_error"] = _json_number(report.quadrature_error)
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    d = parse_distribution(args.dist)
    sample = draw_design(d, _DESIGNS[args.design], args.n, args.seed, args.literal_extremes)
    lines = ["i,value"]
    for i, value in enumerate(sample.raw_order, start=1):
        lines.append(f"{i},{float(value)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _read_observations(path: str) -> np.ndarray:
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise InsufficientDataError(f"no observations in {path!r}")

    def parse_line(line: str) -> float:
        return float(line.split(",")[-1].strip())

    start = 0
    try:
        parse_line(lines[0])
    except ValueError:
        start = 1  # header row
    values = []
    for line in lines[start:]:
        try:
            values.append(parse_line(line))
        except ValueError as exc:
            raise ParseError(f"bad observation line {line!r} in {path!r}") from exc
    return np.asarray(values, dtype=float)


def _cmd_estimate(args) -> int:
    values = _read_observations(args.input)
    bandwidth = args.bandwidth
    if bandwidth != SILVERMAN:
        try:
            bandwidth = float(bandwidth)
        except ValueError as exc:
            raise ParseError(f"bad bandwidth {args.bandwidth!r}") from exc
    cfg = EstimatorConfig(
        variant=args.variant,
        m=args.m,
        style=args.style,
        kernel=args.kernel,
        bandwidth=bandwidth,
    )
    value = run_estimator(values, cfg, include_head=args.include_head)
    config_payload = {
        "variant": cfg.variant,
        "m": _json_number(cfg.m),
        "style": cfg.style,
        "include_head": bool(args.include_head),
        "observations": int(values.size),
    }
    if cfg.style == "kernel":
        config_payload["kernel"] = cfg.kernel
        config_payload["bandwidth"] = (
            cfg.bandwidth if isinstance(cfg.bandwidth, str) else _json_number(cfg.bandwidth)
        )
        config_payload["bandwidth_resolved"] = _json_number(resolve_bandwidth(values, cfg))
    payload = {"value": _json_number(value), "config": config_payload}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    reports = run_theorem_suite()
    records = []
    for r in reports:
        records.append(
            {
                "theorem_id": r.theorem_id,
                "subject": r.subject,
                "hypotheses_checked": [
                    {
                        "name": h.name,
                        "passed": h.passed,
                        "margin": _json_number(h.margin),
                        "note": h.note,
                    }
                    for h in r.hypotheses_checked
                ],
                "conclusion_margin": _json_number(r.conclusion_margin),
                "passed": r.passed,
                "inconclusive": r.inconclusive,
                "gated_failure": r.gated_failure,
                "note": r.note,
            }
        )
    _emit(json.dumps(records, indent=2) + "\n", args.out)
    return 1 if any(r.gated_failure for r in reports) else 0


def _cmd_converge(args) -> int:
    d = parse_distribution(args.dist)
    w = power_weight(args.m)
    design = _DESIGNS[args.design]
    sizes = []
    for token in args.sizes.split(","):
        token = token.strip()
        if token:
            try:
                sizes.append(int(token))
            except ValueError as exc:
                raise ParseError(f"bad size {token!r}") from exc
    if not sizes or any(s < 2 for s in sizes):
        raise ParseError(f"sizes must be integers >= 2, got {args.sizes!r}")
    if args.seeds < 1:
        raise ParseError(f"need at least one seed, got {args.seeds}")

    truth = gw_cumulative(d, w, args.variant)
    cfg = EstimatorConfig(variant=args.variant, m=args.m, style="step")

    lines = ["sample_size,design,variant,estimate,truth,abs_err,rel_err,seed"]
    cells = sorted((size, derive_seed(args.seed, r)) for size in sizes for r in range(args.seeds))
    for size, seed in cells:
        value = run_estimator(draw_design(d, design, size, seed), cfg)
        abs_err = abs(value - truth)
        rel_err = abs_err / abs(truth) if truth != 0.0 else math.nan
        lines.append(
            f"{size},{args.design},{args.variant},{value!r},{truth!r},{abs_err!r},{rel_err!r},{seed}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwextropy",
        description="Weighted cumulative extropy measures, sampling designs, and estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="analytic measure value as JSON")
    measure.add_argument("--dist", required=True, help="uniform:a,b | exp:rate | powersurv:b | transform:name(spec)")
    measure.add_argument("--weight", required=True, help="power:m | const:c | expdecay:a")
    measure.add_argument("--variant", required=True, choices=(PAST, RESIDUAL))
    measure.add_argument("--design", default="single", choices=sorted(_DESIGNS))
    measure.add_argument("--n", type=int, default=1, help="design size (1 for single)")
    measure.add_argument("--out", default=None)
    measure.set_defaults(handler=_cmd_measure)

    simulate = sub.add_parser("simulate", help="draw one seeded sample as CSV")
    simulate.add_argument("--dist", required=True)
    simulate.add_argument("--design", default="srs", choices=_SAMPLING_DESIGNS)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--literal-extremes",
        action="store_true",
        help="draw every set member and reduce, instead of the one-uniform shortcut",
    )
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(handler=_cmd_simulate)

    estimate = sub.add_parser("estimate", help="empirical estimate from a CSV of observations")
    estimate.add_argument("--input", required=True, help="CSV file: `value` lines or `i,value` rows")
    estimate.add_argument("--variant", required=True, choices=(PAST, RESIDUAL))
    estimate.add_argument("--m", type=float, default=1.0, help="power weight exponent")
    estimate.add_argument("--style", default="step", choices=["step", "kernel"])
    estimate.add_argument("--kernel", default="gaussian", choices=["gaussian", "epanechnikov"])
    estimate.add_argument("--bandwidth", default=SILVERMAN, help="positive number or 'silverman'")
    estimate.add_argument("--include-head", action="store_true", help="add the omitted head term")
    estimate.add_argument("--out", default=None)
    estimate.set_defaults(handler=_cmd_estimate)

    verify = sub.add_parser("verify", help="run the theorem suite, emit JSON reports")
    verify.add_argument("--out", default=None)
    verify.set_defaults(handler=_cmd_verify)

    converge = sub.add_parser("converge", help="estimator error over a sample-size ladder")
    converge.add_argument("--dist", required=True)
    converge.add_argument("--m", type=float, default=1.0)
    converge.add_argument("--variant", required=True, choices=(PAST, RESIDUAL))
    converge.add_argument("--design", default="srs", choices=_SAMPLING_DESIGNS)
    converge.add_argument("--sizes", required=True, help="comma-separated sample sizes")
    converge.add_argument("--seeds", type=int, required=True, help="number of replicates per size")
    converge.add_argument("--seed", type=int, default=0, help="base seed for replicate derivation")
    converge.add_argument("--out", default=None)
    converge.set_defaults(handler=_cmd_converge)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (DivergenceError, OverflowError) as exc:
        print(f"divergent computation: {exc}", file=sys.stderr)
        return 3
    except ExtropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(run_command(sys.argv[1:]))
