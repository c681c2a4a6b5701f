"""Per-layer metrics derived from one traced pass.

``per_point`` divides by evaluated points (``shape.evaluate_point`` calls: each
report node plus its 8 stencil offsets), ``per_node`` by report nodes (the
``nu * nv`` of every filled ``SurfaceGrid``).  A ratio whose base is zero
reads 0.
"""

from __future__ import annotations

RK = "solvers.rk_integrate"
DENSE = "solvers.DenseOutput.__call__"
WARP = "ambient.WarpingFunction.__call__"
METRIC_AT = "ambient.AmbientSpace.metric_at"
JET = "immersion.Jet2Immersion.jet"
POINT = "shape.evaluate_point"
GRID = "shape.SurfaceGrid.__init__"
VERIFY = "verdicts.verify_surface"
SCANS = ("catalog.nonexistence_scan_e11h4", "catalog.nonexistence_slice_scan")
CLI_MAIN = "cli.main"

_UNITS = {"calls": "count", "busy": "s", "self": "s", "per_point": "calls/point",
          "per_node": "calls/node", "per_cert": "calls/cert"}

# (metric, span or spans summed, statistic) for metrics read off one span
SPAN_METRICS = [
    ("solvers.rk_integrate.calls", RK, "calls"),
    ("solvers.rk_integrate.busy_s", RK, "busy"),
    ("solvers.dense.calls", DENSE, "calls"),
    ("solvers.dense.self_s", DENSE, "self"),
    ("solvers.dense.per_point", DENSE, "per_point"),
    ("solvers.max_equation_residual.busy_s",
     "solvers.WarpSystemSolution.max_equation_residual", "busy"),
    ("ambient.warp.calls", WARP, "calls"),
    ("ambient.warp.per_point", WARP, "per_point"),
    ("ambient.warp.self_s", WARP, "self"),
    ("ambient.metric_at.calls", METRIC_AT, "calls"),
    ("ambient.metric_at.per_point", METRIC_AT, "per_point"),
    ("ambient.metric_at.self_s", METRIC_AT, "self"),
    ("linalg.inner.calls", "linalg.inner", "calls"),
    ("linalg.inner.per_node", "linalg.inner", "per_node"),
    ("linalg.inner.self_s", "linalg.inner", "self"),
    ("linalg.numeric_rank.calls", "linalg.numeric_rank", "calls"),
    ("linalg.project_out_span.calls", "linalg.project_out_span", "calls"),
    ("immersion.jet.calls", JET, "calls"),
    ("immersion.jet.per_point", JET, "per_point"),
    ("immersion.jet.self_s", JET, "self"),
    ("immersion.adapted_frame.calls", "immersion.adapted_frame", "calls"),
    ("immersion.adapted_frame.self_s", "immersion.adapted_frame", "self"),
    ("immersion.induced_metric.per_point", "immersion.induced_metric", "per_point"),
    ("immersion.chart_second_fundamental.per_point",
     "immersion.chart_second_fundamental", "per_point"),
    ("immersion.chart_second_fundamental.self_s",
     "immersion.chart_second_fundamental", "self"),
    ("shape.grid_fill.per_cert", GRID, "per_cert"),
    ("shape.grid_fill.busy_s", GRID, "busy"),
    ("shape.evaluate_point.calls", POINT, "calls"),
    ("shape.evaluate_point.self_s", POINT, "self"),
    ("shape.second_fundamental_form.self_s", "shape.second_fundamental_form", "self"),
    ("shape.chart_derivative.calls", "shape.SurfaceGrid.chart_derivative", "calls"),
    ("shape.chart_derivative.busy_s", "shape.SurfaceGrid.chart_derivative", "busy"),
    ("shape.covariant_along.calls", "shape.SurfaceGrid.covariant_along", "calls"),
    ("shape.nabla_perp_h.per_node", "shape.SurfaceGrid.nabla_perp_h", "per_node"),
    ("shape.nabla_perp_h.busy_s", "shape.SurfaceGrid.nabla_perp_h", "busy"),
    ("shape.tangent_connection.per_node", "shape.SurfaceGrid.tangent_connection",
     "per_node"),
    ("shape.mean_curvature_derivatives.calls",
     "shape.SurfaceGrid.mean_curvature_derivatives", "calls"),
    ("shape.normal_space_dims.busy_s", "shape.normal_space_dims", "busy"),
    ("shape.pmcv_residual.busy_s", "shape.pmcv_residual", "busy"),
    ("verdicts.verify_surface.busy_s", VERIFY, "busy"),
    ("verdicts.verify_surface.self_s", VERIFY, "self"),
    ("verdicts.biconservativity_residual.busy_s",
     "verdicts.biconservativity_residual", "busy"),
    ("verdicts.codazzi_residuals.busy_s", "verdicts.codazzi_residuals", "busy"),
    ("verdicts.frame_identity_residuals.busy_s",
     "verdicts.frame_identity_residuals", "busy"),
    ("verdicts.pmcv_structure_check.busy_s", "verdicts.pmcv_structure_check", "busy"),
    ("verdicts.flat_normal_bundle_check.busy_s",
     "verdicts.flat_normal_bundle_check", "busy"),
    ("verdicts.node_residuals.calls", "verdicts.node_residuals", "calls"),
    ("verdicts.node_residuals.busy_s", "verdicts.node_residuals", "busy"),
    ("verdicts.to_json.busy_s", "verdicts.VerificationReport.to_json", "busy"),
    ("catalog.scan.busy_s", SCANS, "busy"),
    ("cli.main.busy_s", CLI_MAIN, "busy"),
    ("cli.main.self_s", CLI_MAIN, "self"),
]

# metrics computed from hook counters and from what the benchmark measured
OTHER_UNITS = {
    "solvers.steps_accepted": "count",
    "solvers.steps_rejected": "count",
    "solvers.step_accept_ratio": "ratio",
    "immersion.fd_chart.calls_per_jet": "calls/jet",
    "shape.nodes_ok": "count",
    "shape.degenerate_nodes": "count",
    "shape.node_yield": "ratio",
    "verdicts.entries_failed": "count",
    "catalog.scan.nodes": "count",
    "cli.bytes_written": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

# metrics that must repeat exactly between two traced passes of one seed
EXACT_UNITS = {"count", "calls/point", "calls/node", "calls/cert", "calls/jet",
               "bytes"}


def traced_spans() -> set[str]:
    """Every span name the metrics read; each must fire in the self-test."""
    names = set()
    for _, spans, _ in SPAN_METRICS:
        names.update((spans,) if isinstance(spans, str) else spans)
    return names


def units() -> dict[str, str]:
    out = {metric: _UNITS[stat] for metric, _, stat in SPAN_METRICS}
    out.update(OTHER_UNITS)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer, bytes_written: int, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name.  Coverage is the
    self time of all program spans over the summed duration of the
    benchmark's item spans."""
    c = tracer.counters
    points = tracer.stat(POINT)
    nodes = c["report_nodes"]

    def read(spans, stat):
        spans = (spans,) if isinstance(spans, str) else spans
        if stat in ("busy", "self"):
            return sum(tracer.stat(s, stat) for s in spans)
        calls = sum(tracer.stat(s) for s in spans)
        base = {"per_point": points, "per_node": nodes,
                "per_cert": c["certificates"]}.get(stat)
        return calls if base is None else _ratio(calls, base)

    out = {metric: read(spans, stat) for metric, spans, stat in SPAN_METRICS}
    steps = c["steps_accepted"] + c["steps_rejected"]
    named_self = item_wall = 0.0
    for name, busy, self_s in zip(tracer.names, tracer.busy, tracer.self_s):
        if name.startswith("item."):
            item_wall += busy
        else:
            named_self += self_s
    out.update({
        "solvers.steps_accepted": c["steps_accepted"],
        "solvers.steps_rejected": c["steps_rejected"],
        "solvers.step_accept_ratio": _ratio(c["steps_accepted"], steps),
        "immersion.fd_chart.calls_per_jet": _ratio(tracer.stat("bench.fd_chart"),
                                                   c["fd_jets"]),
        "shape.nodes_ok": c["nodes_ok"],
        "shape.degenerate_nodes": c["degenerate_nodes"],
        "shape.node_yield": _ratio(c["nodes_ok"], nodes),
        "verdicts.entries_failed": c["entries_failed"],
        "catalog.scan.nodes": c["scan_nodes"],
        "cli.bytes_written": bytes_written,
        "trace.coverage": _ratio(named_self, item_wall),
        "trace.overhead_s": overhead_s,
    })
    return out
