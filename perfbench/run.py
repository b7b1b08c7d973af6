"""gwextropy benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: analytic, mc_study, large_n, cli_cold (see workloads.py). The
library is imported from ``src/`` of the same checkout; without it the
benchmark exits with a nonzero code and prints no result.

Each run times whole passes of its workload, closed loop, one caller, until
the passes add up to S seconds at reference host speed (see below), and
checks every output between passes.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end ones of BENCHMARK.json:

* setup_s: median over five fresh processes of the time from process start
  to the point where the first timed op would begin (imports, inputs,
  warm-up).
* wall_s: mean wall time of one pass (the host's speed flips between two
  levels every few seconds; a mean follows the mix, a median jumps).
* ops_per_s: ops completed per second of pass time.
* op_p50_ms, op_tail_ms: median op latency and the highest of p99, p95,
  p90, p75 with at least 10 samples beyond it (else the median; on cli_cold,
  with about 20 ops a run, that is always the median). The percentile and
  sample count go in the record.
* peak_rss_mb: peak resident set of the process after the timed passes;
  on cli_cold, the largest peak of the subcommand processes, each read with
  wait4.

Set-up, op and pass times are scaled to a reference host speed by samples
of a calibration kernel taken in a helper process next to them
(calibrate.py); the raw figures go in the record.

An op is one measure_report (analytic), one replicate (mc_study), one
estimate case (large_n) or one subcommand invocation (cli_cold). failed
counts ops, and analytic's theorem-suite passes, that raised something
unexpected or failed their check; attempted counts everything checked.

With --trace 1 the run spends half of S untraced and half traced, then takes
the workload's micro-timings untraced, and prints the per_layer metrics of
BENCHMARK.json; metrics.py says which end-to-end metric each should move.
Span and micro-timing times are raw; the trace.* wall times are at
reference speed. A line before the result holds the run's record: machine,
versions, commit, seed, tail percentile, failures; the record and the spans
of a traced run are also written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from calibrate import Calibration

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
CAL_INTERVAL = 0.05  # seconds of ops between calibration samples


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="gwextropy benchmark")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


PACKAGE = ROOT / "src" / "gwextropy" / "__init__.py"


def import_library():
    """Import gwextropy from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import gwextropy as gx
    from gwextropy import cli, estimators, measures, orders, sampling

    if Path(gx.__file__).resolve() != PACKAGE.resolve():
        raise SystemExit(f"benchmark: imported gwextropy from {gx.__file__}, not {PACKAGE}")
    mods = SimpleNamespace(cli=cli, estimators=estimators, measures=measures, orders=orders, sampling=sampling)
    lib = SimpleNamespace(
        measure_report=getattr(measures, "measure_report", None),
        run_theorem_suite=getattr(orders, "run_theorem_suite", None),
        draw_design=getattr(sampling, "draw_design", None),
        replicate=getattr(sampling, "replicate", None),
        step_estimate=getattr(estimators, "step_estimate", None),
        kernel_estimate=getattr(estimators, "kernel_estimate", None),
        run_command=getattr(cli, "run_command", None),
    )
    return gx, mods, lib


def setup_times(args) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_SAMPLES fresh processes, at reference host speed
    and raw: each child sets the workload up, prints the clock reading at
    which its first op would start, and exits; the calibration helper is
    sampled before and after each child."""
    scaled, raw = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    with Calibration() as cal:
        for _ in range(SETUP_SAMPLES):
            before = cal.sample()
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-500:]}")
            raw.append(float(proc.stdout.split()[-1]) - start)
            scaled.append(raw[-1] * cal.factor(before, cal.sample()))
    return scaled, raw


def measure(workload, seconds: float, tracer=None) -> SimpleNamespace:
    """Run whole passes until their wall times, at reference host speed, add
    up to ``seconds``; so a run holds the same number of passes however fast
    the host is at the moment, and the tail percentile (which depends on the
    number of ops) stays the same from run to run.

    Each pass keeps its ops' labels, raw times and host-speed factors: the
    helper of calibrate.py is sampled at the start of the pass and after
    every CAL_INTERVAL of ops, outside every timed task. Outputs are checked
    after each pass, outside the timed interval.
    """
    workload.tracer = tracer
    passes = []
    attempted = failed = 0
    p = 0
    with Calibration() as cal:
        while sum(ps.wall for ps in passes) < seconds:
            tasks = workload.tasks(p)
            outputs, times, factors = [], [], []
            gc.collect()  # every pass starts from the same collector state
            before = cal.sample()
            last_cal = time.perf_counter()
            for j, task in enumerate(tasks):
                if tracer is not None:
                    tracer.op += 1
                start = time.perf_counter()
                try:
                    out = task.fn()
                except Exception as exc:  # an op that raises is checked like any output
                    out = exc
                end = time.perf_counter()
                outputs.append(out)
                times.append(end - start)
                if end - last_cal >= CAL_INTERVAL or j == len(tasks) - 1:
                    after = cal.sample()
                    factors += [cal.factor(before, after)] * (len(times) - len(factors))
                    before, last_cal = after, time.perf_counter()
            passes.append(SimpleNamespace(
                wall=sum(t * f for t, f in zip(times, factors)), raw_wall=sum(times),
                ops=[(t.label, dt * f, dt) for t, dt, f in zip(tasks, times, factors) if t.is_op],
                factor=statistics.median(factors)))
            if tracer is not None:
                tracer.end_pass()
            oks = workload.check(p, tasks, outputs)
            attempted += len(oks)
            failed += oks.count(False)
            p += 1
    return SimpleNamespace(passes=passes, attempted=attempted, failed=failed)


TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the tail latency: the highest
    of TAIL_PERCENTILES with at least 10 samples beyond it, else the median.

    A fixed ladder keeps the percentile the same from run to run; a percentile
    set to exactly 10 samples beyond moves with the sample count, and in a mix
    of cheap and costly ops jumps from one op kind to another.
    """
    n = len(latencies)
    pct = next((p for p in TAIL_PERCENTILES if n - 1 - int(p * (n - 1) / 100.0) >= 10), 50.0)
    xs = sorted(latencies)
    pos = pct * (n - 1) / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), pct, n - 1 - lo


def timing_metrics(passes, raw: bool = False) -> tuple[dict, dict]:
    """wall_s, ops_per_s, op_p50_ms and op_tail_ms over ``passes``, at
    reference host speed (or raw), and the tail's percentile and counts."""
    walls = [ps.raw_wall if raw else ps.wall for ps in passes]
    ops = [op[2] if raw else op[1] for ps in passes for op in ps.ops]
    tail_s, pct, beyond = tail(ops)
    return {
        "wall_s": statistics.fmean(walls),
        "ops_per_s": len(ops) / sum(walls),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }, {"percentile": pct, "samples": len(ops), "beyond": beyond}


def by_label(passes) -> dict:
    groups: dict[str, list[float]] = {}
    for ps in passes:
        for label, seconds, _ in ps.ops:
            groups.setdefault(label.split(" m=")[0], []).append(seconds)
    return {label: statistics.median(v) * 1e3 for label, v in groups.items()}


def machine(gx) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gwextropy": getattr(gx, "__version__", "unknown"),
        "platform": platform.platform(),
        "commit": commit,
    }


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    import workloads

    if not PACKAGE.is_file():
        raise SystemExit(f"benchmark: no library at {PACKAGE.parent}; run from a full checkout")
    setup, setup_raw = setup_times(args) if not args.setup_only and args.trace == 0 else ([], [])
    gx, mods, lib = import_library()
    workload = workloads.WORKLOADS[args.workload](args.seed, gx, lib, ROOT)
    OUT.mkdir(exist_ok=True)
    workload.setup()
    if args.setup_only:
        print(f"READY {time.perf_counter()!r}", flush=True)
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": setup, "setup_raw_samples_s": setup_raw, "machine": machine(gx)}
    if args.trace == 0:
        res = measure(workload, args.seconds)
        values, record["op_tail"] = timing_metrics(res.passes)
        values["setup_s"] = statistics.median(setup)
        if args.workload == "cli_cold":
            values["peak_rss_mb"] = workload.child_peak_kb / 1024.0
        else:
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        names = spec["end_to_end"]
        record["raw"] = timing_metrics(res.passes, raw=True)[0]
    else:
        from tracer import Tracer, layer_metrics
        import micro

        base = measure(workload, args.seconds / 2)
        tr = Tracer()
        tr.install(mods, lib)
        try:
            res = measure(workload, args.seconds / 2, tr)
        finally:
            tr.restore()
        values = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
        values.update(layer_metrics(tr, len(res.passes)))
        values.update(micro.run(workload, gx, mods, lib))
        if args.workload == "cli_cold":
            for name, ms in by_label(base.passes).items():
                values[f"cli.wall_ms.{name}"] = ms
        untraced = statistics.fmean(ps.wall for ps in base.passes)
        traced = statistics.fmean(ps.wall for ps in res.passes)
        values["trace.untraced_wall_s"] = untraced
        values["trace.traced_wall_s"] = traced
        values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        res.attempted += base.attempted
        res.failed += base.failed
        names = spec["per_layer"]
        record["absent_boundaries"] = tr.absent
        record["passes"] = {"untraced": len(base.passes), "traced": len(res.passes)}
        trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps({
            "summary": tr.summary(),
            "spans_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": tr.spans,
        }))
        record["trace_file"] = str(trace_file.relative_to(ROOT))

    record["speed_factor"] = statistics.median(ps.factor for ps in res.passes)
    record["passes_timed"] = len(res.passes)
    record["op_medians_ms"] = by_label(res.passes)
    record["failures"] = workload.failures
    if hasattr(workload, "summary"):
        record["study"] = workload.summary()
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
