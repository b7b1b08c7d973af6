"""Spans and counts at the library's layer boundaries, recorded from outside.

The tracer replaces the names each calling module imported (for example
``measures.integrate_unit_interval`` or ``orders.eval_weight``) with
wrappers that open a span around the call, and puts the originals back
afterwards. Nothing under ``src/`` changes. A boundary name that no longer
exists is listed in ``absent`` and its layer reads as zero; the run goes on.

A span's self time is its duration minus the time covered by its direct
children, accumulated as each span closes, so self times cover every span
even though only the first ``keep`` spans are kept for the trace file.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.spans: list[tuple] = []  # (id, parent id, op, name, start ns, end ns)
        self.span_count = 0
        self.totals = defaultdict(lambda: [0, 0, 0])  # name -> [calls, total ns, self ns]
        self.counts = defaultdict(int)
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[list] = []  # open spans: [id, ns covered by children]
        self._patched: list[tuple] = []
        self._factor_keys: set = set()

    def call(self, name: str, fn, *args, **kwargs):
        self.span_count += 1
        frame = [self.span_count, 0]
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            total = self.totals[name]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if len(self.spans) < self.keep:
                self.spans.append((frame[0], parent, self.op, name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; note it as absent if missing."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', 'lib')}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def end_pass(self) -> None:
        """Close the distinct-factor window: factors repeat across passes by design."""
        self.counts["distinct_factors"] += len(self._factor_keys)
        self._factor_keys.clear()

    # Boundary wrappers that also count work.

    def _integrator(self, fn):
        def traced(f, *args, **kwargs):
            key = getattr(f, "_factor_key", None)
            if key is not None:
                self._factor_keys.add(key)
            res = self.call("quadrature.integrate", fn, self.wrap("measures.integrand", f), *args, **kwargs)
            self.counts["subdivisions"] += int(getattr(res, "subdivisions", 0))
            self.counts["unconverged"] += not getattr(res, "converged", True)
            return res

        return traced

    def _integrand_factory(self, fn):
        def tagged(d, w, kind, *args, **kwargs):
            integrand = fn(d, w, kind, *args, **kwargs)
            key = (d.label, w.label, getattr(kind, "kind", kind), getattr(kind, "order_index", None))
            try:
                integrand._factor_key = key
            except AttributeError:
                pass
            return integrand

        return tagged

    def _sampler(self, fn):
        def traced(d, design, n, *args, **kwargs):
            literal = kwargs.get("literal_extremes", args[1] if len(args) > 1 else False)
            self.counts["uniforms"] += n * (n + 1) // 2 if literal and design != "SRS" else n
            return self.call("sampling.draw", fn, d, design, n, *args, **kwargs)

        return traced

    def _smoother(self, fn):
        def traced(sample, kernel, h, x, *args, **kwargs):
            data = getattr(sample, "values", sample)
            self.counts["kernel_bytes"] += 8 * _size(x) * _size(data)
            return self.call("estimators.smoothed_cdf", fn, sample, kernel, h, x, *args, **kwargs)

        return traced

    def _suite(self, fn):
        def traced(*args, **kwargs):
            reports = self.call("orders.suite", fn, *args, **kwargs)
            self.counts["theorem_reports"] += len(reports)
            return reports

        return traced

    def install(self, mods, lib) -> None:
        """Wrap the layer boundaries of the gwextropy modules in ``mods`` and
        those library functions the benchmark itself calls through ``lib``
        (a name ``lib`` holds as None is missing from the library)."""
        span = lambda name: lambda fn: self.wrap(name, fn)  # noqa: E731
        self.patch(mods.measures, "integrate_unit_interval", self._integrator)
        self.patch(mods.measures, "make_integrand", self._integrand_factory)
        self.patch(mods.measures, "eval_weight", span("weights.eval"))
        self.patch(mods.orders, "eval_weight", span("weights.eval"))
        self.patch(mods.orders, "measure_report", span("measures.report"))
        self.patch(mods.orders, "gw_design_measure", span("measures.report"))
        self.patch(mods.sampling, "draw_design", self._sampler)
        self.patch(mods.cli, "draw_design", self._sampler)
        self.patch(mods.cli, "measure_report", span("measures.report"))
        self.patch(mods.cli, "run_theorem_suite", self._suite)
        self.patch(mods.estimators, "step_estimate", span("estimators.step"))
        self.patch(mods.estimators, "kernel_estimate", span("estimators.kernel"))
        self.patch(mods.estimators, "smoothed_cdf", self._smoother)
        for attr, make in (
            ("measure_report", span("measures.report")),
            ("run_theorem_suite", self._suite),
            ("draw_design", self._sampler),
            ("step_estimate", span("estimators.step")),
            ("kernel_estimate", span("estimators.kernel")),
            ("run_command", span("cli.run_command")),
        ):
            if hasattr(lib, attr):
                self.patch(lib, attr, make)

    def summary(self) -> dict:
        return {
            "totals": {name: list(v) for name, v in self.totals.items()},
            "counts": dict(self.counts),
            "span_count": self.span_count,
            "absent": list(self.absent),
        }

    def merge(self, summary: dict) -> None:
        """Add the summary of a traced child process."""
        for name, (calls, total, self_ns) in summary["totals"].items():
            mine = self.totals[name]
            mine[0] += calls
            mine[1] += total
            mine[2] += self_ns
        for name, value in summary["counts"].items():
            self.counts[name] += value
        self.span_count += summary["span_count"]
        self.absent.extend(a for a in summary["absent"] if a not in self.absent)


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x) if hasattr(x, "__len__") else 1
    size = 1
    for dim in shape:
        size *= dim
    return size


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass from the tracer's totals and counts."""
    per = 1.0 / max(passes, 1)

    def calls(name):
        return tr.totals[name][0] * per if name in tr.totals else 0.0

    def ms(name, which=1):
        return tr.totals[name][which] * per / 1e6 if name in tr.totals else 0.0

    quad_calls = calls("quadrature.integrate")
    evals = calls("measures.integrand")
    factors = tr.counts.get("distinct_factors", 0)
    orders_self = sum(ms(name, 2) for name in tr.totals if name.startswith("orders."))
    return {
        "quadrature.calls": quad_calls,
        "quadrature.integrand_evals": evals,
        "quadrature.subdivisions": tr.counts.get("subdivisions", 0) * per,
        "quadrature.unconverged": tr.counts.get("unconverged", 0) * per,
        "quadrature.self_ms": ms("quadrature.integrate", 2),
        "quadrature.evals_per_call": evals / quad_calls if quad_calls else 0.0,
        "measures.reports": calls("measures.report"),
        "measures.factor_integrals": quad_calls,
        "measures.distinct_factor_ratio": factors * per / quad_calls if quad_calls else 0.0,
        "measures.integrand_ms": ms("measures.integrand"),
        "weights.eval_calls": calls("weights.eval"),
        "weights.eval_ms": ms("weights.eval"),
        "orders.self_ms": orders_self,
        "orders.reports": tr.counts.get("theorem_reports", 0) * per,
        "sampling.draws": calls("sampling.draw"),
        "sampling.uniforms": tr.counts.get("uniforms", 0) * per,
        "sampling.draw_ms": ms("sampling.draw"),
        "estimators.step_calls": calls("estimators.step"),
        "estimators.step_ms": ms("estimators.step"),
        "estimators.kernel_calls": calls("estimators.kernel"),
        "estimators.kernel_ms": ms("estimators.kernel"),
        "estimators.kernel_bytes_computed": tr.counts.get("kernel_bytes", 0) * per,
        "trace.spans": tr.span_count * per,
    }
