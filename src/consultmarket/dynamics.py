"""Market path over a horizon: flat price with entry, or the exact decline.

A scenario starts from the t = 0 cleared state.  The regime depends on the
parameters alone (mature iff mu > alpha - psi), so it is classified once
and holds for the whole path.  An emerging path stays at the smallest
provider's cost and records entry.  On a mature path the price follows
``equilibrium.price_slope``, the autonomous law

    dP/dt = (alpha - psi - mu) * min(P - floor, n*delta_c*(1 - beta*n)) * w(P)

with floor = n*(c - delta_c), w = 1 in capacity mode and
w = min_viable_size(P)/n in literal mode.  The law has an exact solution,
``model.decline_gap``: linear down to the cap, then exponential (capacity)
or logistic (literal) in the gap P - floor.  ``dt`` only sets where that
solution is sampled, at t = k*dt for every whole k up to the horizon, which
must be a whole number of steps.  Every recorded column is then evaluated
in one numpy pass over the time and price arrays; the scalar functions of
``curves``, ``model`` and ``equilibrium`` stay the reference those columns
are tested against, and RK4 (``numerics.step_path``) the oracle of the path.

Floor rule: the path ends before the first sample within
FLOOR_TOL * n*delta_c of the cost floor.  That sample is not recorded and
the trajectory is marked ``floor_reached``, so every recorded price after
t = 0 stays above the floor.  Any non-finite recorded value, the initial
slope included, raises NumericError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from .curves import DemandSide, SupplySide
from .equilibrium import classify_regime, solve_equilibrium
from .errors import ConsultMarketError, DomainError, NumericError
from .model import (
    ModelParams, decline_gap, decline_slope, demand_curve, exit_flow, inflow_flux,
    marginal_size, profit_frontier, required_share, supply_curve, supply_density,
)
from .scenarios import ScenarioConfig

__all__ = [
    "TrajectoryPoint", "Trajectory", "TrajectorySummary", "ScenarioConfig", "SweepRow",
    "simulate", "summarize", "sweep",
]

# Distance from the cost floor, as a fraction of n*delta_c, at which a path
# ends (see the floor rule in the module docstring).
FLOOR_TOL = 1e-9


class TrajectoryPoint(NamedTuple):
    """One time step of the simulated market path."""

    t: float
    price: float
    price_slope: float
    required_share: float
    marginal_size: float
    demand: float
    supply: float
    entry_rate: float
    exit_rate: float
    profit_frontier: float


COLUMNS = TrajectoryPoint._fields


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded path: one read-only float64 array per TrajectoryPoint field.

    Iteration and ``points`` build TrajectoryPoints of Python floats on
    demand and never cache them.
    """

    t: np.ndarray
    price: np.ndarray
    price_slope: np.ndarray
    required_share: np.ndarray
    marginal_size: np.ndarray
    demand: np.ndarray
    supply: np.ndarray
    entry_rate: np.ndarray
    exit_rate: np.ndarray
    profit_frontier: np.ndarray
    floor_reached: bool
    mode: str

    def __post_init__(self) -> None:
        for name in COLUMNS:
            column = np.array(getattr(self, name), dtype=float)
            if column.ndim != 1 or len(column) != len(self.t):
                raise DomainError("trajectory columns must be 1-d arrays of equal length")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[TrajectoryPoint]:
        columns = zip(*(getattr(self, name).tolist() for name in COLUMNS))
        return map(tuple.__new__, repeat(TrajectoryPoint), columns)

    @property
    def points(self) -> tuple[TrajectoryPoint, ...]:
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (self.floor_reached, self.mode) == (other.floor_reached, other.mode) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in COLUMNS
        )


@dataclass(frozen=True)
class TrajectorySummary:
    final_price: float
    span: float
    price_drift_pct_per_year: float
    share_gain_pp_per_year: float
    total_exits: float
    total_entries: float
    floor_reached: bool


def _columns(
    params: ModelParams, mode: str, t: np.ndarray, price: np.ndarray, mature: bool
) -> dict[str, np.ndarray]:
    """Every recorded column in one numpy pass over the time and price arrays,
    through the closed forms of ``model``."""
    p = params
    demand_growth = np.exp(p.alpha * t)
    supply_growth = np.exp(p.mu * t)
    marginal = marginal_size(p, price)
    demand = demand_curve(p, demand_growth, price)
    slope = entry = frontier = np.zeros_like(t)
    if mature:
        slope = decline_slope(p, price, mode == "literal")
        frontier = profit_frontier(p, slope)
    else:  # the price is pinned at entry_price
        flux = inflow_flux(p, demand_growth, p.entry_price)
        entry = flux - p.mu * demand
    return dict(
        t=t,
        price=price,
        price_slope=slope,
        required_share=required_share(p, price),
        marginal_size=marginal,
        demand=demand,
        supply=supply_curve(p, supply_growth, price),
        entry_rate=entry,
        exit_rate=exit_flow(p, supply_density(p, supply_growth, marginal), slope),
        profit_frontier=frontier,
    )


def simulate(config: ScenarioConfig) -> Trajectory:
    """Run the scenario and return the recorded path.

    Deterministic: identical configs produce bit-identical trajectories.
    """
    params = config.resolved_params()
    t = np.arange(int(round(config.horizon / config.dt)) + 1) * config.dt
    demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
    mature = classify_regime(demand, supply, 0.0).is_mature
    literal = config.mode == "literal"
    floor_reached = False
    with np.errstate(all="ignore"):  # non-finite values are caught below
        if mature:
            price = solve_equilibrium(demand, supply, 0.0, slope_mode=config.mode).price
            floor = params.cost_floor
            stop = floor + FLOOR_TOL * params.n * params.delta_c
            path = floor + decline_gap(params, price - floor, t, literal)
            stopped = path[1:] <= stop
            floor_reached = price <= stop or bool(stopped.any())
            if floor_reached:
                end = int(stopped.argmax()) + 1
                t, path = t[:end], path[:end]
        else:
            path = np.full(len(t), params.entry_price)
        columns = _columns(params, config.mode, t, path, mature)
    for name, column in columns.items():
        finite = np.isfinite(column)
        if not finite.all():
            k = int(finite.argmin())
            raise NumericError(f"non-finite {name} at t={float(t[k])!r}: {float(column[k])!r}")
    return Trajectory(**columns, floor_reached=floor_reached, mode=config.mode)


def cumulative_flow(rate: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of a flow rate over time, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(t))))


def summarize(traj: Trajectory) -> TrajectorySummary:
    """Headline statistics of a trajectory.

    Drift is the total relative price change per year of simulated span;
    the share gain is in percentage points per year; exits and entries are
    the trapezoid-integrated flow totals.
    """
    t, price, share = traj.t.tolist(), traj.price.tolist(), traj.required_share.tolist()
    span = t[-1] - t[0]
    drift = 100.0 * (price[-1] - price[0]) / (price[0] * span) if span > 0 else 0.0
    gain = 100.0 * (share[-1] - share[0]) / span if span > 0 else 0.0
    return TrajectorySummary(
        final_price=price[-1],
        span=span,
        price_drift_pct_per_year=drift,
        share_gain_pp_per_year=gain,
        total_exits=float(cumulative_flow(traj.exit_rate, traj.t)[-1]),
        total_entries=float(cumulative_flow(traj.entry_rate, traj.t)[-1]),
        floor_reached=traj.floor_reached,
    )


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a parameter sweep; ``error`` is set when that
    point failed instead of aborting the sweep."""

    value: float
    final_price: float | None = None
    price_drift_pct_per_year: float | None = None
    share_gain_pp_per_year: float | None = None
    total_exits: float | None = None
    floor_reached: bool | None = None
    error: str | None = None


def sweep_values(lo: float, hi: float, step: float) -> list[float]:
    if step <= 0:
        raise DomainError(f"step must be > 0, got {step!r}")
    if hi < lo:
        raise DomainError(f"range is empty: [{lo!r}, {hi!r}]")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


def sweep(base: ScenarioConfig, name: str, lo: float, hi: float, step: float) -> list[SweepRow]:
    """Re-run the scenario across a parameter grid, one row per value.

    ``name`` must be a model parameter field that the anchors do not pin
    (sweeping a pinned normalization would change nothing).  Anchored
    scenarios re-anchor at every grid point, so the pinned f0/g0 follow
    the varied parameter.
    Per-point failures of this package (ConsultMarketError) are recorded in
    their row; any other exception is a bug and propagates.  Rows come back
    ordered by parameter value regardless of evaluation order.
    """
    if name not in ModelParams.field_names():
        raise DomainError(f"unknown parameter {name!r}; valid: {ModelParams.field_names()}")
    if base.anchors is not None and name in base.anchors.pins:
        raise DomainError(f"{name} is pinned by the anchors; sweeping it changes nothing")
    rows: list[SweepRow] = []
    for value in sweep_values(lo, hi, step):
        try:
            s = summarize(simulate(replace(base, params=base.params.replace(**{name: value}))))
        except ConsultMarketError as exc:
            rows.append(SweepRow(value=value, error=f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(
            SweepRow(
                value=value,
                final_price=s.final_price,
                price_drift_pct_per_year=s.price_drift_pct_per_year,
                share_gain_pp_per_year=s.share_gain_pp_per_year,
                total_exits=s.total_exits,
                floor_reached=s.floor_reached,
            )
        )
    return rows
