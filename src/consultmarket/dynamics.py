"""Market path over a horizon: flat price with entry, or integrated decline.

A scenario starts from the t = 0 cleared state.  Under the closed forms the
regime classifier margin is (alpha - psi)/mu - 1 at every t, so the regime
is classified once, at t = 0, and holds for the whole path.  An emerging
path takes no steps: the price stays at the smallest provider's cost and
entry is recorded.  On a mature path ``equilibrium.price_slope`` reduces
exactly to the autonomous law

    dP/dt = (alpha - psi - mu) * min(P - floor, n*delta_c*(1 - beta*n)) * w(P)

with floor = n*(c - delta_c), w = 1 in capacity mode and
w = min_viable_size(P)/n in literal mode, which is stepped with fixed-step
RK4, its four stages written out inline in the step loop.  The horizon must
be a whole number of steps.  Every recorded column is then evaluated in one
numpy pass over the time and price arrays; the scalar functions of
``curves``, ``model`` and ``equilibrium`` stay the reference those columns
are tested against.

Floor rule: an RK4 stage or step that comes within FLOOR_TOL * n*delta_c of
the cost floor ends the path.  That step is not recorded and the trajectory
is marked ``floor_reached``, so every recorded price stays above the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterator

import numpy as np

from .calibration import AnchorConditions, anchored_params
from .curves import DemandSide, SupplySide
from .equilibrium import SLOPE_MODES, classify_regime, solve_equilibrium
from .errors import ConsultMarketError, DomainError, NumericError
from .model import ModelParams

__all__ = [
    "TrajectoryPoint", "Trajectory", "TrajectorySummary", "ScenarioConfig", "SweepRow",
    "simulate", "summarize", "sweep",
]

# Distance from the cost floor, as a fraction of n*delta_c, at which a path
# ends (see the floor rule in the module docstring).
FLOOR_TOL = 1e-9


@dataclass(frozen=True)
class TrajectoryPoint:
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


COLUMNS = tuple(f.name for f in fields(TrajectoryPoint))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a simulation run needs.

    When ``anchors`` is set, the normalization solve is applied to
    ``params`` before anything else, so swept parameters re-anchor
    consistently.
    """

    params: ModelParams
    mode: str = "capacity"
    horizon: float = 10.0
    dt: float = 0.01
    anchors: AnchorConditions | None = None

    def __post_init__(self) -> None:
        if self.mode not in SLOPE_MODES:
            raise DomainError(f"mode must be one of {SLOPE_MODES}, got {self.mode!r}")
        if not self.horizon > 0:
            raise DomainError(f"horizon must be > 0, got {self.horizon!r}")
        if not 0 < self.dt <= self.horizon:
            raise DomainError(f"dt must be in (0, horizon], got {self.dt!r}")
        # the path must end at the horizon: horizon/dt has to be a whole
        # number of steps up to rounding in the division
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise DomainError(
                f"horizon {self.horizon!r} is not a whole number of steps dt={self.dt!r}"
            )

    def resolved_params(self) -> ModelParams:
        if self.anchors is None:
            return self.params
        return anchored_params(self.params, self.anchors)


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
        rows = zip(*(getattr(self, name).tolist() for name in COLUMNS))
        return (TrajectoryPoint(*row) for row in rows)

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
    """Every recorded column in one numpy pass over the time and price arrays.

    Each expression keeps the operation order of its scalar counterpart:
    DemandSide.at, SupplySide.at, min_viable_size, required_offshore_share,
    the reduced slope, entry_rate, exit_rate, profitability_threshold_size.
    """
    p = params
    marginal = np.maximum((p.n * p.c - price) / (p.n * p.beta * p.delta_c), p.n)
    demand_growth = p.alpha * p.f0 * np.exp(p.alpha * t)
    supply_growth = np.exp(p.mu * t)
    r_cut = price / p.v
    tail = demand_growth * (p.psi / (p.alpha - p.psi)) * p.r_m * (r_cut / p.r_m) ** (1.0 - p.alpha / p.psi)
    demand = np.where(r_cut <= p.r_m, demand_growth * p.r_m * p.psi / (p.alpha - p.psi), tail)
    share_term = np.minimum(1.0 + (price - p.full_local_cost) / (p.n * p.delta_c), 1.0 - p.beta * p.n)
    slope = entry = frontier = np.zeros_like(t)
    if mature:
        cap = p.n * p.delta_c * (1.0 - p.beta * p.n)
        slope = (p.alpha - p.psi - p.mu) * np.minimum(price - p.cost_floor, cap)
        if mode == "literal":
            slope = slope * (marginal / p.n)
        frontier = np.abs(slope) / (p.beta * p.mu * p.n * p.delta_c)
    else:
        cut = max(p.entry_price / p.v, p.r_m)  # the price is pinned at entry_price
        entry = p.psi * cut * (demand_growth * (cut / p.r_m) ** (-p.alpha / p.psi)) - p.mu * demand
    return dict(
        t=t,
        price=price,
        price_slope=slope,
        required_share=(p.n * p.c - price) / (p.n * p.delta_c),
        marginal_size=marginal,
        demand=demand,
        supply=supply_growth * p.g0 / (p.n * p.beta) * share_term,
        entry_rate=entry,
        exit_rate=p.g0 * supply_growth / marginal * np.abs(slope) / (p.n * p.beta * p.delta_c),
        profit_frontier=frontier,
    )


def _decline_path(
    params: ModelParams, mode: str, price: float, dt: float, steps: int
) -> tuple[list[float], bool]:
    """RK4 path of the reduced decline law from ``price``, and whether it hit the floor.

    The four stages of the law (see the module docstring) are evaluated
    inline, in the operation order of ``numerics.rk4_step`` applied to the
    scalar law, so the path equals ``step_path`` of that law bit for bit.
    A finite stage or step at or below the floor stop ends the path (a
    stage at -inf does not); a non-finite stage raises NumericError.
    """
    p = params
    rate = p.alpha - p.psi - p.mu
    floor = p.cost_floor
    cap = p.n * p.delta_c * (1.0 - p.beta * p.n)
    stop = floor + FLOOR_TOL * p.n * p.delta_c
    literal = mode == "literal"
    n, local, width = p.n, p.n * p.c, p.n * p.beta * p.delta_c
    half, sixth, minus_inf = 0.5 * dt, dt / 6.0, -math.inf
    prices = [price]
    if minus_inf < price <= stop:
        return prices, True
    for k in range(steps):
        gap = price - floor
        k1 = rate * (gap if gap < cap else cap)
        if literal:
            raw = (local - price) / width
            k1 *= (raw if raw > n else n) / n
        y = price + half * k1
        if minus_inf < y <= stop:
            return prices, True
        gap = y - floor
        k2 = rate * (gap if gap < cap else cap)
        if literal:
            raw = (local - y) / width
            k2 *= (raw if raw > n else n) / n
        y = price + half * k2
        if minus_inf < y <= stop:
            return prices, True
        gap = y - floor
        k3 = rate * (gap if gap < cap else cap)
        if literal:
            raw = (local - y) / width
            k3 *= (raw if raw > n else n) / n
        y = price + dt * k3
        if minus_inf < y <= stop:
            return prices, True
        gap = y - floor
        k4 = rate * (gap if gap < cap else cap)
        if literal:
            raw = (local - y) / width
            k4 *= (raw if raw > n else n) / n
        total = k1 + 2.0 * k2 + 2.0 * k3 + k4
        # a non-finite stage makes the sum non-finite; finite stages can
        # still overflow it, so the stages themselves decide
        if not math.isfinite(total) and not all(map(math.isfinite, (k1, k2, k3, k4))):
            raise NumericError(f"non-finite slope near t={k * dt!r}, value={price!r}")
        price = price + sixth * total
        if price <= stop:
            return prices, True
        prices.append(price)
    return prices, False


def simulate(config: ScenarioConfig) -> Trajectory:
    """Run the scenario and return the recorded path.

    Deterministic: identical configs produce bit-identical trajectories.
    """
    params = config.resolved_params()
    steps = int(round(config.horizon / config.dt))
    demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
    mature = classify_regime(demand, supply, 0.0).is_mature
    floor_reached = False
    if mature:
        price = solve_equilibrium(demand, supply, 0.0, slope_mode=config.mode).price
        prices, floor_reached = _decline_path(params, config.mode, price, config.dt, steps)
        path = np.array(prices)
    else:
        path = np.full(steps + 1, params.entry_price)
    t = np.arange(len(path)) * config.dt
    columns = _columns(params, config.mode, t, path, mature)
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

    ``name`` must be a model parameter field.  Anchored scenarios
    re-anchor at every grid point, so f0/g0 follow the varied parameter.
    Per-point failures of this package (ConsultMarketError) are recorded in
    their row; any other exception is a bug and propagates.  Rows come back
    ordered by parameter value regardless of evaluation order.
    """
    if name not in ModelParams.field_names():
        raise DomainError(f"unknown parameter {name!r}; valid: {ModelParams.field_names()}")
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
