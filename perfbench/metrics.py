"""Which end-to-end metric each per-layer metric should move, and where.

``BENCHMARK.json`` holds every metric's name, unit and direction (and the
end-to-end bounds); it has no room for this mapping, which is what a change
to a layer has to show. Per-layer counts and times are per traced pass, so
they do not grow with the number of passes a faster program fits into the
run.
"""

_ANALYTIC_SPEED = "ops_per_s, op_p50_ms and op_tail_ms on analytic; nothing on mc_study"
_SUITE = "wall_s on analytic (the theorem suite is part of every pass)"
_MC = "ops_per_s and op_p50_ms on mc_study; wall_s on large_n only a little"
_LARGE = "wall_s and peak_rss_mb on large_n; ops_per_s on mc_study"
_CLI = "op_p50_ms, op_tail_ms and wall_s on cli_cold (startup = wall minus handler)"
_TRACE = "nothing: describes the traced run itself"

SHOULD_MOVE = {
    "quadrature.calls": _ANALYTIC_SPEED,
    "quadrature.integrand_evals": _ANALYTIC_SPEED,
    "quadrature.subdivisions": _ANALYTIC_SPEED,
    "quadrature.unconverged": _ANALYTIC_SPEED,
    "quadrature.self_ms": _ANALYTIC_SPEED,
    "quadrature.evals_per_call": _ANALYTIC_SPEED,
    "quadrature.factor_integral_us": _ANALYTIC_SPEED,
    "quadrature.factor_integral_evals": _ANALYTIC_SPEED,
    "measures.reports": _SUITE,
    "measures.factor_integrals": _SUITE,
    "measures.distinct_factor_ratio": _SUITE,
    "measures.integrand_ms": _ANALYTIC_SPEED,
    "measures.report_ms.exp_minrssu_n3": _ANALYTIC_SPEED,
    "measures.report_ms.uniform_maxrssu_n5": _ANALYTIC_SPEED,
    "measures.report_ms.powersurv_minrssu_n4": _ANALYTIC_SPEED,
    "measures.report_ms.uniform_srs_m0.5": _ANALYTIC_SPEED,
    "measures.report_evals.exp_minrssu_n3": _ANALYTIC_SPEED,
    "measures.report_evals.uniform_maxrssu_n5": _ANALYTIC_SPEED,
    "measures.report_evals.powersurv_minrssu_n4": _ANALYTIC_SPEED,
    "measures.report_evals.uniform_srs_m0.5": _ANALYTIC_SPEED,
    "weights.eval_calls": "op_p50_ms on analytic",
    "weights.eval_ms": "op_p50_ms on analytic",
    "orders.self_ms": _SUITE,
    "orders.reports": _SUITE,
    "orders.suite_ms": _SUITE,
    "orders.check_order_us.disp": _SUITE,
    "orders.check_order_us.convex_transform": _SUITE,
    "orders.check_order_us.star": _SUITE,
    "orders.check_order_us.superadditive": _SUITE,
    "orders.check_order_us.st": _SUITE,
    "sampling.draws": _MC,
    "sampling.uniforms": _MC,
    "sampling.draw_ms": _MC,
    "sampling.draw_us_n20.srs": _MC,
    "sampling.draw_us_n20.minrssu": _MC,
    "sampling.draw_us_n20.maxrssu": _MC,
    "sampling.draw_1e6_ms": _MC,
    "estimators.step_calls": _LARGE,
    "estimators.step_ms": _LARGE,
    "estimators.kernel_calls": _LARGE,
    "estimators.kernel_ms": _LARGE,
    "estimators.kernel_bytes_computed": _LARGE,
    "estimators.step_1e6_ms": _LARGE,
    "estimators.kernel_gauss_1k_ms": _LARGE,
    "estimators.kernel_gauss_5k_ms": _LARGE,
    "estimators.kernel_epan_1k_ms": _LARGE,
    "estimators.kernel_epan_5k_ms": _LARGE,
    "cli.import_ms": _CLI,
    "cli.import_numpy_ms": _CLI,
    "cli.import_scipy_integrate_ms": _CLI,
    "cli.import_scipy_special_ms": _CLI,
    "cli.handler_ms.measure": _CLI,
    "cli.handler_ms.simulate": _CLI,
    "cli.handler_ms.estimate": _CLI,
    "cli.handler_ms.verify": _CLI,
    "cli.handler_ms.converge": _CLI,
    "cli.wall_ms.measure": _CLI,
    "cli.wall_ms.simulate": _CLI,
    "cli.wall_ms.estimate": _CLI,
    "cli.wall_ms.verify": _CLI,
    "cli.wall_ms.converge": _CLI,
    "trace.untraced_wall_s": _TRACE,
    "trace.traced_wall_s": _TRACE,
    "trace.overhead_pct": _TRACE,
    "trace.spans": _TRACE,
}
