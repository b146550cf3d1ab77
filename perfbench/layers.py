"""The layer map: which span gives each per-layer metric, on which workload.

Every per-layer metric is taken from the workload whose end-to-end metric
it should move, and is normalised per operation of that workload: per CLI
invocation on cli-session, per scenario on trajectory-batch and per draw
(three solves and one transport) on clearing-oracle.  ``busy`` is the
summed span duration, ``self`` the part not covered by child spans.
"""

from __future__ import annotations

CLI, TB, CO = "cli-session", "trajectory-batch", "clearing-oracle"

# (metric, workload, span, field); field "calls" gives a count per operation,
# "busy"/"self" milliseconds per operation
SPAN_METRICS = (
    ("cli.load_config.busy_ms", CLI, "cli.load_config", "busy"),
    ("cli.run.self_ms", CLI, "cli.run", "self"),
    ("calibration.load_series.busy_ms", CLI, "calibration.load_series", "busy"),
    ("calibration.estimate_rates.busy_ms", CLI, "calibration.estimate_rates", "busy"),
    ("calibration.anchored_params.calls", CLI, "calibration.anchored_params", "calls"),
    ("dynamics.sweep.busy_ms", CLI, "dynamics.sweep", "busy"),
    ("dynamics.simulate.calls", TB, "dynamics.simulate", "calls"),
    ("dynamics.simulate.busy_ms", TB, "dynamics.simulate", "busy"),
    ("dynamics.simulate.self_ms", TB, "dynamics.simulate", "self"),
    ("dynamics.summarize.busy_ms", TB, "dynamics.summarize", "busy"),
    ("equilibrium.price_slope.calls", TB, "equilibrium.price_slope", "calls"),
    ("equilibrium.price_slope.busy_ms", TB, "equilibrium.price_slope", "busy"),
    ("equilibrium.price_slope.self_ms", TB, "equilibrium.price_slope", "self"),
    ("equilibrium.classify_regime.calls", TB, "equilibrium.classify_regime", "calls"),
    ("equilibrium.entry_rate.calls", TB, "equilibrium.entry_rate", "calls"),
    ("equilibrium.exit_rate.calls", TB, "equilibrium.exit_rate", "calls"),
    ("numerics.rk4_step.calls", TB, "numerics.rk4_step", "calls"),
    ("numerics.rk4_step.busy_ms", TB, "numerics.rk4_step", "busy"),
    ("curves.DemandSide.at.calls", TB, "curves.DemandSide.at", "calls"),
    ("curves.DemandSide.at.busy_ms", TB, "curves.DemandSide.at", "busy"),
    ("curves.SupplySide.at.calls", TB, "curves.SupplySide.at", "calls"),
    ("curves.SupplySide.at.busy_ms", TB, "curves.SupplySide.at", "busy"),
    ("curves.DemandSide.density.calls", TB, "curves.DemandSide.density", "calls"),
    ("curves.SupplySide.density.calls", TB, "curves.SupplySide.density", "calls"),
    ("model.min_viable_size.calls", TB, "model.min_viable_size", "calls"),
    ("model.ProviderBounds.builds", TB, "model.ProviderBounds", "calls"),
    ("model.ModelParams.builds", TB, "model.ModelParams", "calls"),
    ("equilibrium.solve_equilibrium.calls", CO, "equilibrium.solve_equilibrium", "calls"),
    ("equilibrium.solve_equilibrium.busy_ms", CO, "equilibrium.solve_equilibrium", "busy"),
    ("numerics.find_root.calls", CO, "numerics.find_root", "calls"),
    ("numerics.integrate_tail.calls", CO, "numerics.integrate_tail", "calls"),
    ("numerics.integrate_tail.busy_ms", CO, "numerics.integrate_tail", "busy"),
    ("numerics.DensityGrid.builds", CO, "numerics.DensityGrid", "calls"),
    ("numerics.DensityGrid.busy_ms", CO, "numerics.DensityGrid", "busy"),
    ("curves.evolve_density.busy_ms", CO, "curves.evolve_density", "busy"),
    ("curves.grid.DemandSide.at.calls", CO, "curves.DemandSide.at", "calls"),
    ("curves.grid.DemandSide.at.busy_ms", CO, "curves.DemandSide.at", "busy"),
    ("curves.grid.SupplySide.at.calls", CO, "curves.SupplySide.at", "calls"),
    ("curves.grid.SupplySide.at.busy_ms", CO, "curves.SupplySide.at", "busy"),
)

# metrics computed outside SPAN_METRICS, with their units
OTHER_METRICS = {
    "import.interpreter_ms": "ms",
    "import.numpy_ms": "ms",
    "import.consultmarket_ms": "ms",
    "cli.output_bytes": "bytes",
    "cli.calibrate.wall_ms": "ms",
    "cli.solve.wall_ms": "ms",
    "cli.simulate.wall_ms": "ms",
    "cli.simulate_literal.wall_ms": "ms",
    "cli.sweep.wall_ms": "ms",
    "dynamics.sweep.ok_ratio": "ratio",
    "dynamics.points_per_run": "count",
    "dynamics.trajectory_bytes": "bytes",
    "equilibrium.classify_regime.emerging_calls": "count",
    "numerics.residual_evals_per_solve": "count",
    "trace.cli-session.overhead_pct": "%",
    "trace.trajectory-batch.overhead_pct": "%",
    "trace.clearing-oracle.overhead_pct": "%",
}


def unit(metric: str) -> str:
    if metric in OTHER_METRICS:
        return OTHER_METRICS[metric]
    return "ms" if metric.endswith("_ms") else "count"


def all_metrics() -> list[tuple[str, str]]:
    return [(m, unit(m)) for m, *_ in SPAN_METRICS] + list(OTHER_METRICS.items())


def span_values(totals: dict[str, dict[str, dict[str, float]]], ops: dict[str, int]) -> dict[str, float]:
    """Per-operation values of SPAN_METRICS from per-workload span totals."""
    out = {}
    for metric, workload, span, field in SPAN_METRICS:
        agg = totals[workload].get(span, {"calls": 0, "busy": 0.0, "self": 0.0})
        value = agg[field] / ops[workload]
        out[metric] = value if field == "calls" else 1e3 * value
    return out
