"""Market clearing at a point in time: price, regime, and flow rates.

Two regimes exist.  In an *emerging* market the inflow of newly affordable
clients outpaces what incumbent providers can absorb by growing their
workforce; the price sits at the smallest provider's cost and new
providers enter.  In a *mature* market provider growth outpaces the client
inflow, prices decline, and the smallest providers are pushed below
viability and exit.

The price decline balances the relative client inflow against the
provider growth rate, scaled by how much extra capacity a unit of price
unlocks.  Two normalizations of that balance are exposed:

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

from .errors import DomainError, NumericError, RegimeError
from .model import min_viable_size, required_offshore_share
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

    ``margin`` is (client inflow flux)/(mu * demand stock) - 1; positive or
    zero means emerging.  Under the closed forms it reduces to
    (alpha - psi)/mu - 1 independent of the test price.
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


def _client_inflow_flux(demand, t: float, price: float) -> float:
    """psi * r * f(t, r): clients crossing the affordability cut per year.

    The cut r = p/v saturates at the entrant revenue: below v*r_m every
    client is already served and the only newly served inflow is the
    entrant boundary flux.
    """
    p = demand.params
    r_cut = max(price / p.v, p.r_m)
    return p.psi * r_cut * demand.density(t, r_cut)


def _classify(demand, params, t: float, p_test: float) -> tuple[RegimeLabel, float]:
    """The regime at test price ``p_test`` and the flow imbalance there.

    The imbalance psi*(p/v)*f(t, p/v) - mu*D(t, p) is the entry flow when
    ``p_test`` is the smallest provider's cost.
    """
    flux = _client_inflow_flux(demand, t, p_test)
    stock = demand.at(t, p_test)
    if stock <= 0:
        raise DomainError(f"no demand at test price {p_test!r}")
    margin = math.inf if params.mu == 0 else flux / (params.mu * stock) - 1.0
    # the tie belongs to the emerging side; a relative slack keeps exact-tie
    # parameter choices there despite rounding in the flux evaluation
    tag = "emerging" if flux >= params.mu * stock * (1.0 - 1e-12) else "mature"
    return RegimeLabel(tag=tag, margin=margin), flux - params.mu * stock


def classify_regime(demand, supply, t: float, p_test: float | None = None) -> RegimeLabel:
    """Compare client inflow against provider training capacity.

    Emerging iff psi*(p/v)*f(t, p/v) >= mu*D(t, p) at the test price
    (default: the smallest provider's cost).  Ties classify as emerging.
    """
    params = supply.params
    return _classify(demand, params, t, params.entry_price if p_test is None else p_test)[0]


def entry_rate(demand, supply, t: float) -> float:
    """Entry flow of smallest-size providers in an emerging market, firms/year.

    The gap between the client inflow flux and what incumbent growth
    absorbs, both evaluated at the smallest provider's cost.
    """
    params = supply.params
    label, flow = _classify(demand, params, t, params.entry_price)
    if not label.is_emerging:
        raise RegimeError("entry_rate is defined only in the emerging regime")
    return flow


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
    e_min = min_viable_size(price, params)
    g_min = supply.density(t, e_min)
    return g_min * abs(price_slope) / (params.n * params.beta * params.delta_c)


def price_slope(demand, supply, t: float, price: float, mode: str = "capacity") -> float:
    """Signed rate of price change, currency/year^2, in a mature market.

    The client inflow flux is first expressed relative to the demand stock
    (the clearing premise: served clients equal serviceable capacity at
    every instant), so the imbalance is (inflow/stock - mu) * S(t, p).
    The mode fixes the normalization; see the module docstring.
    """
    if mode not in SLOPE_MODES:
        raise DomainError(f"mode must be one of {SLOPE_MODES}, got {mode!r}")
    params = supply.params
    stock_d = demand.at(t, price)
    if stock_d <= 0:
        raise DomainError(f"no demand at price {price!r}")
    rel_inflow = _client_inflow_flux(demand, t, price) / stock_d
    imbalance = (rel_inflow - params.mu) * supply.at(t, price)
    e_min = min_viable_size(price, params)
    g_min = supply.density(t, e_min)
    coefficient = g_min / (params.n * params.beta * params.delta_c)
    if mode == "capacity":
        coefficient *= e_min / params.n
    if coefficient == 0:
        raise NumericError(
            f"singular slope: zero marginal provider density at price {price!r}"
        )
    return imbalance / coefficient


def solve_equilibrium(
    demand,
    supply,
    t: float = 0.0,
    slope_mode: str = "capacity",
    tol_abs: float = DEFAULT_PRICE_TOL,
) -> EquilibriumResult:
    """Clear the market at time ``t`` and classify the resulting state.

    Finds the root of D(t, p) - S(t, p) with Brent's method
    (``numerics.find_root``) on a bracket from the cost floor to v*r_m,
    grown by doubling and capped at the full local cost n*c, then
    classifies the regime once.  Raises NumericError with the curve
    values at both bracket ends when no crossing exists.
    """
    params = supply.params
    if demand.params != params:
        raise DomainError("demand and supply sides carry different parameter sets")

    def residual(p: float) -> float:
        return demand.at(t, p) - supply.at(t, p)

    lo = params.cost_floor
    f_lo = residual(lo)
    if f_lo < 0:
        raise NumericError(
            f"market cannot clear: demand {f_lo!r} short of supply at the cost floor {lo!r}"
        )
    hi = min(params.v * params.r_m, params.full_local_cost)
    if hi <= lo:
        hi = params.full_local_cost
    f_hi = residual(hi)
    while f_hi > 0 and hi < params.full_local_cost:
        hi = min(2.0 * hi, params.full_local_cost)
        f_hi = residual(hi)
    if f_hi > 0:
        raise NumericError(
            "market cannot clear: demand exceeds supply on the whole price domain; "
            f"residual({lo!r})={f_lo!r}, residual({hi!r})={f_hi!r}"
        )

    price = find_root(residual, Bracket(lo=lo, hi=hi, f_lo=f_lo, f_hi=f_hi), tol_abs)
    served = demand.at(t, price)
    label, entry_flow = _classify(demand, params, t, params.entry_price)
    marginal = min_viable_size(price, params)
    share = required_offshore_share(price, params)

    if label.is_emerging:
        return EquilibriumResult(
            t=t,
            price=price,
            regime=label,
            served=served,
            marginal_size=marginal,
            required_share=share,
            price_slope=0.0,
            entry_rate=entry_flow,
        )
    slope = price_slope(demand, supply, t, price, slope_mode)
    return EquilibriumResult(
        t=t,
        price=price,
        regime=label,
        served=served,
        marginal_size=marginal,
        required_share=share,
        price_slope=slope,
        exit_rate=exit_rate(supply, t, price, slope),
    )
