"""Demand and supply sides of the services market.

Client firms follow Gibrat growth at rate psi with entrants arriving at
revenue r_m under a constant birth rate alpha, which yields the power-law
density f(t, r) = alpha * f0 * exp(alpha*t) * (r/r_m)^(-alpha/psi) on
r >= r_m; demand D(t, p) is its tail from r = p/v.  Providers start
Zipf-distributed, g(0, e) = g0/e on [n, 1/beta], and grow at rate mu, so
the employee-weighted supply integral S(t, p) is affine in price from 0 at
the cost floor n*(c - delta_c) until even the smallest provider is viable,
then flat.  The closed forms are written in ``model``.

Each side can also carry a sampled density grid; the quadrature route
through that grid is the independent numeric cross-check of the closed
forms.  Grids are immutable, so curve objects are safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import BelowCostFloorError, DomainError, NumericError
from .model import ModelParams, demand_curve, demand_density, min_viable_size, supply_curve, supply_density
from .numerics import DEFAULT_GRID_POINTS, DensityGrid, integrate_tail, tail_integrals

__all__ = [
    "DemandSide",
    "SupplySide",
    "EvolvedDensity",
    "evolve_density",
    "DEMAND_CAP_FACTOR",
]

# Default demand axis cap, as a multiple of the entrant revenue r_m.  With
# alpha/psi near 2 the mass beyond it is under 0.2% of the total, and the
# closed form stays primary.
DEMAND_CAP_FACTOR = 1e3


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"time must be finite and >= 0, got {t!r}")


def _growth(rate: float, t: float) -> float:
    """exp(rate*t) at a checked time; a factor past the float range is a NumericError."""
    _check_time(t)
    try:
        return math.exp(rate * t)
    except OverflowError:
        raise NumericError(f"growth factor exp({rate!r} * {t!r}) overflows") from None


@dataclass(frozen=True)
class DemandSide:
    """Client demand for the service: density over firm revenue plus its tail.

    Without a ``grid`` every value is a closed form of ``model``.  A grid
    holds the t=0 density sampled on a log axis and routes values through
    quadrature; time enters through the separable factor exp(alpha*t).
    """

    params: ModelParams
    grid: DensityGrid | None = None

    def __post_init__(self) -> None:
        if self.grid is not None:
            if self.grid.lower_bound != self.params.r_m:
                raise DomainError("demand grid must start at the entrant revenue r_m")
            if self.grid.upper_bound < DEMAND_CAP_FACTOR * self.params.r_m:
                raise DomainError(
                    f"demand grid must reach at least {DEMAND_CAP_FACTOR:g} * r_m"
                )

    @classmethod
    def closed_form(cls, params: ModelParams) -> "DemandSide":
        return cls(params=params)

    @classmethod
    def with_grid(
        cls,
        params: ModelParams,
        cap_factor: float = DEMAND_CAP_FACTOR,
        points: int = DEFAULT_GRID_POINTS,
    ) -> "DemandSide":
        """Sample the t=0 density on [r_m, cap_factor * r_m] for numeric use."""
        grid = DensityGrid.log_spaced(
            params.r_m, cap_factor * params.r_m, lambda r: demand_density(params, 1.0, r), points=points
        )
        return cls(params=params, grid=grid)

    def density(self, t: float, r: float) -> float:
        """f(t, r): firms per unit revenue at revenue ``r``.

        Grid-backed sides interpolate their grid on its span and fall back
        to the closed form past the axis cap.
        """
        p = self.params
        growth = _growth(p.alpha, t)
        if r < p.r_m:
            raise DomainError(f"revenue {r!r} below the entrant revenue {p.r_m!r}")
        if self.grid is not None and r <= self.grid.upper_bound:
            return growth * self.grid.interp(r)
        return demand_density(p, growth, r)

    def curve(self, t: float) -> Callable[[float], float]:
        """price -> D(t, price): client firms whose benefit v*r covers the price.

        Below v*r_m every incumbent demands and the full population count
        is returned; a grid-backed side counts nothing past its axis cap.
        The time, the growth factor and a grid's tail table are settled
        once here, so every price of one instant costs a lookup.
        """
        p, grid = self.params, self.grid
        growth = _growth(p.alpha, t)
        tail = None if grid is None else tail_integrals(grid, "none")

        def demand(price: float) -> float:
            if not math.isfinite(price) or price < 0:
                raise DomainError(f"price must be finite and >= 0, got {price!r}")
            if tail is None:
                return demand_curve(p, growth, price)
            r_cut = price / p.v
            if r_cut >= grid.upper_bound:
                return 0.0
            return growth * tail(max(r_cut, grid.lower_bound))

        return demand

    def at(self, t: float, price: float) -> float:
        """D(t, p): one price of ``curve(t)``."""
        return self.curve(t)(price)


@dataclass(frozen=True)
class SupplySide:
    """Provider supply: Zipf size density on [n, 1/beta] growing at rate mu.

    Without a ``grid`` every value is a closed form of ``model``; a grid
    routes values through quadrature.
    """

    params: ModelParams
    grid: DensityGrid | None = None

    def __post_init__(self) -> None:
        if self.grid is not None:
            b = self.params.bounds
            if self.grid.lower_bound != b.e_min_domain or self.grid.upper_bound != b.e_max_domain:
                raise DomainError("supply grid must span the size domain [n, 1/beta]")

    @classmethod
    def closed_form(cls, params: ModelParams) -> "SupplySide":
        return cls(params=params)

    @classmethod
    def with_grid(cls, params: ModelParams, points: int = DEFAULT_GRID_POINTS) -> "SupplySide":
        grid = DensityGrid.log_spaced(
            params.n, 1.0 / params.beta, lambda e: supply_density(params, 1.0, e), points=points
        )
        return cls(params=params, grid=grid)

    def density(self, t: float, e: float) -> float:
        """g(t, e): provider firms per employee at size ``e``."""
        growth = _growth(self.params.mu, t)
        b = self.params.bounds
        if not b.e_min_domain <= e <= b.e_max_domain:
            raise DomainError(
                f"size {e!r} outside provider domain [{b.e_min_domain!r}, {b.e_max_domain!r}]"
            )
        if self.grid is not None:
            return growth * self.grid.interp(e)
        return supply_density(self.params, growth, e)

    def curve(self, t: float) -> Callable[[float], float]:
        """price -> S(t, price): client engagements deliverable profitably.

        Zero at the cost floor, affine in price up to the point where even
        size-n providers are viable, then flat.  Domain is [floor, n*c].
        Settled once per instant as in ``DemandSide.curve``.
        """
        p, grid = self.params, self.grid
        growth = _growth(p.mu, t)
        tail = None if grid is None else tail_integrals(grid, "identity")

        def supply(price: float) -> float:
            if not math.isfinite(price):
                raise DomainError(f"price must be finite, got {price!r}")
            if price < p.cost_floor:
                raise BelowCostFloorError(f"price {price!r} below the cost floor {p.cost_floor!r}")
            if price > p.full_local_cost:
                raise DomainError(f"price {price!r} above the full local cost {p.full_local_cost!r}")
            if price == p.cost_floor:
                return 0.0
            if tail is None:
                return supply_curve(p, growth, price)
            return growth * tail(min(min_viable_size(price, p), grid.upper_bound)) / p.n

        return supply

    def at(self, t: float, price: float) -> float:
        """S(t, p): one price of ``curve(t)``."""
        return self.curve(t)(price)


class EvolvedDensity(NamedTuple):
    """Result of advecting a density grid: new grid plus the mass pushed
    past the axis cap."""

    grid: DensityGrid
    truncated_mass: float


def evolve_density(
    grid: DensityGrid,
    rate: float,
    t: float,
    inflow: Callable[[float], float] | None = None,
) -> EvolvedDensity:
    """Advance a density by proportional (Gibrat) growth for ``t`` years.

    Characteristics are x(t) = x0 * exp(rate*t) and the density is constant
    along them; axis points whose pre-image falls below the lower edge are
    filled from ``inflow`` evaluated at the boundary entry time
    t - ln(x/x_lower)/rate (zero when no inflow is given).  The returned
    grid lives on the same axis; mass advected beyond the axis cap is
    integrated and reported, not silently dropped.
    """
    import numpy as np
    if rate <= 0:
        raise DomainError(f"growth rate must be > 0, got {rate!r}")
    _check_time(t)
    if t == 0:
        return EvolvedDensity(grid=grid, truncated_mass=0.0)
    shrink = math.exp(-rate * t)
    pre_image = grid.axis * shrink
    advected = pre_image >= grid.lower_bound
    values = np.zeros_like(grid.values)
    values[advected] = np.interp(pre_image[advected], grid.axis, grid.values)
    if inflow is not None and not np.all(advected):
        entry_times = t - np.log(grid.axis[~advected] / grid.lower_bound) / rate
        values[~advected] = [inflow(s) for s in entry_times]
    exit_cut = grid.upper_bound * shrink
    truncated = integrate_tail(grid, max(exit_cut, grid.lower_bound), weight="none")
    return EvolvedDensity(
        grid=DensityGrid(axis=grid.axis, values=values), truncated_mass=truncated
    )
