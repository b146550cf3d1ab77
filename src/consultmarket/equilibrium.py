"""Market clearing at a point in time: price, regime, and flow rates.

Two regimes exist.  In an *emerging* market (mu <= alpha - psi) the inflow
of newly affordable clients outpaces what incumbent providers can absorb
by growing their workforce; the price sits at the smallest provider's cost
and new providers enter.  In a *mature* market provider growth outpaces
the client inflow, prices decline, and the smallest providers are pushed
below viability and exit.

The regime, the price decline and the entry flow depend on the parameters
alone, so they are closed forms of ``model`` on every side; only the
clearing price, the served count and the exit flow read the curve sides.
The decline balances the relative client inflow against provider growth,
scaled by how much extra capacity a unit of price unlocks, in one of two
normalizations:

* ``"literal"`` divides the flow imbalance by the marginal firm-count
  density g(t, e_min)/(n*beta*delta_c) - a head-count balance.
* ``"capacity"`` (default) additionally weights the marginal firm by the
  e_min/n clients it serves, i.e. divides by dS/dp.  This is the variant
  whose decline magnitudes line up with the calibrated scenario's yearly
  drift; the head-count variant runs about three orders of magnitude
  hotter and is retained for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import _check_time, _growth
from .errors import BelowCostFloorError, DomainError, NumericError, RegimeError
from .model import (
    decline_slope, demand_curve, exit_flow, inflow_flux, min_viable_size, required_offshore_share,
)
from .numerics import DEFAULT_PRICE_TOL, Bracket, find_root

__all__ = [
    "RegimeLabel",
    "EquilibriumResult",
    "SLOPE_MODES",
    "classify_regime",
    "entry_rate",
    "exit_rate",
    "price_slope",
    "solve_equilibrium",
]

SLOPE_MODES = ("capacity", "literal")


@dataclass(frozen=True)
class RegimeLabel:
    """Market regime tag plus the dimensionless classifier margin.

    The tag is "mature" iff mu > alpha - psi; the tie is emerging.
    ``margin`` is (alpha - psi)/mu - 1, the relative excess of the client
    inflow over what provider growth absorbs, the same at every t and
    price (inf at mu = 0); it is >= 0 on the emerging side.
    """

    tag: str  # "emerging" | "mature"
    margin: float

    @property
    def is_emerging(self) -> bool:
        return self.tag == "emerging"

    @property
    def is_mature(self) -> bool:
        return self.tag == "mature"


@dataclass(frozen=True)
class EquilibriumResult:
    """Cleared market state at one instant.

    Exactly one of ``entry_rate``/``exit_rate`` is set, matching the
    regime.  ``required_share`` is the displacement share of the marginal
    provider; its complement is the share that stays local.
    """

    t: float
    price: float
    regime: RegimeLabel
    served: float
    marginal_size: float
    required_share: float
    price_slope: float
    entry_rate: float | None = None
    exit_rate: float | None = None

    @property
    def required_share_complement(self) -> float:
        return 1.0 - self.required_share


def _regime(params) -> RegimeLabel:
    threshold = params.alpha - params.psi
    margin = math.inf if params.mu == 0 else threshold / params.mu - 1.0
    return RegimeLabel(tag="mature" if params.mu > threshold else "emerging", margin=margin)


def _entry_flow(params, t: float) -> float:
    """psi*(p/v)*f(t, p/v) - mu*D(t, p) at the smallest provider's cost p."""
    growth, price = _growth(params.alpha, t), params.entry_price
    return inflow_flux(params, growth, price) - params.mu * demand_curve(params, growth, price)


def classify_regime(demand, supply, t: float) -> RegimeLabel:
    """Compare client inflow against provider training capacity.

    Emerging iff mu <= alpha - psi: the relative client inflow
    psi*(p/v)*f(t, p/v)/D(t, p) is alpha - psi at every t and price.
    """
    _check_time(t)
    return _regime(supply.params)


def entry_rate(demand, supply, t: float) -> float:
    """Entry flow of smallest-size providers in an emerging market, firms/year.

    The gap between the client inflow flux and what incumbent growth
    absorbs, both evaluated at the smallest provider's cost.
    """
    if not classify_regime(demand, supply, t).is_emerging:
        raise RegimeError("entry_rate is defined only in the emerging regime")
    return _entry_flow(supply.params, t)


def exit_rate(supply, t: float, price: float, price_slope: float) -> float:
    """Providers pushed below viability per year by a declining price.

    g(t, e_min) * |dP/dt| / (n*beta*delta_c); requires a non-increasing
    price (mature regime).
    """
    if price_slope > 0:
        raise RegimeError(
            f"exit_rate requires a non-increasing price, got slope {price_slope!r}"
        )
    params = supply.params
    return exit_flow(params, supply.density(t, min_viable_size(price, params)), price_slope)


def price_slope(demand, supply, t: float, price: float, mode: str = "capacity") -> float:
    """Signed rate of price change, currency/year^2, in a mature market.

    The client inflow relative to the demand stock (the clearing premise:
    served clients equal serviceable capacity at every instant) is
    alpha - psi, so the imbalance is (alpha - psi - mu) * S(t, p), and
    ``model.decline_slope`` gives the result.  The mode fixes the
    normalization; see the module docstring.
    """
    if mode not in SLOPE_MODES:
        raise DomainError(f"mode must be one of {SLOPE_MODES}, got {mode!r}")
    _check_time(t)
    params = supply.params
    if not (math.isfinite(price) and price <= params.full_local_cost):
        raise DomainError(f"price {price!r} must be finite and at most {params.full_local_cost!r}")
    if price <= params.cost_floor:
        raise BelowCostFloorError(
            f"price {price!r} is at or below the cost floor {params.cost_floor!r}"
        )
    return decline_slope(params, price, mode == "literal")


def solve_equilibrium(
    demand,
    supply,
    t: float = 0.0,
    slope_mode: str = "capacity",
    tol_abs: float = DEFAULT_PRICE_TOL,
) -> EquilibriumResult:
    """Clear the market at time ``t`` and classify the resulting state.

    Finds the root of D(t, p) - S(t, p), read through each side's
    ``curve(t)``, with Brent's method
    (``numerics.find_root``) on a bracket from the cost floor to v*r_m,
    grown by doubling and capped at the full local cost n*c.  Curves that
    meet at n*c up to a relative 1e-12 clear there.  Raises NumericError
    with the curve values at both bracket ends when no crossing above the
    floor exists, and when a curve is not finite at either end (D is
    non-increasing and S non-decreasing, so finite ends bound every
    residual between them).
    """
    params = supply.params
    if demand.params != params:
        raise DomainError("demand and supply sides carry different parameter sets")
    d, s = demand.curve(t), supply.curve(t)

    def residual(p: float) -> float:
        return d(p) - s(p)

    lo = params.cost_floor
    f_lo = residual(lo)
    if not math.isfinite(f_lo):
        raise NumericError(f"non-finite curve value at the cost floor: residual({lo!r})={f_lo!r}")
    if f_lo <= 0:
        raise NumericError(
            f"market cannot clear: demand does not exceed supply at the cost floor; residual({lo!r})={f_lo!r}"
        )
    hi = min(params.v * params.r_m, params.full_local_cost)
    if hi <= lo:
        hi = params.full_local_cost
    f_hi = residual(hi)
    while f_hi > 0 and hi < params.full_local_cost:
        hi = min(2.0 * hi, params.full_local_cost)
        f_hi = residual(hi)
    if not math.isfinite(f_hi):
        raise NumericError(f"non-finite curve value: residual({hi!r})={f_hi!r}")
    # curves that meet at n*c (an anchor at the full local cost) clear there;
    # the relative slack absorbs the rounding of both curve evaluations
    if f_hi > 0 and f_hi > 1e-12 * s(hi):
        raise NumericError(
            "market cannot clear: demand exceeds supply on the whole price domain; "
            f"residual({lo!r})={f_lo!r}, residual({hi!r})={f_hi!r}"
        )
    price = hi if f_hi > 0 else find_root(residual, Bracket(lo=lo, hi=hi, f_lo=f_lo, f_hi=f_hi), tol_abs)
    label = _regime(params)
    state = dict(
        t=t,
        price=price,
        regime=label,
        served=d(price),
        marginal_size=min_viable_size(price, params),
        required_share=required_offshore_share(price, params),
    )
    if label.is_emerging:
        return EquilibriumResult(**state, price_slope=0.0, entry_rate=_entry_flow(params, t))
    slope = price_slope(demand, supply, t, price, slope_mode)
    return EquilibriumResult(**state, price_slope=slope, exit_rate=exit_rate(supply, t, price, slope))
