"""Clearing, regime classification, entry/exit flows, price slope modes."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from consultmarket import (
    AnchorConditions,
    DemandSide,
    DomainError,
    ModelParams,
    NumericError,
    RegimeError,
    SupplySide,
    anchored_params,
    classify_regime,
    entry_rate,
    exit_rate,
    min_viable_size,
    price_slope,
    solve_equilibrium,
)
from consultmarket.curves import DEMAND_CAP_FACTOR
from consultmarket.errors import BelowCostFloorError
from consultmarket.numerics import DensityGrid, integrate_tail
from consultmarket.scenarios import german_transport_params


def exit_rate_by_mass_crossing(supply, t, price, slope, dt=1e-6):
    """Oracle: count the density mass swept across the viability threshold
    by a price move of slope*dt, via quadrature over the swept band."""
    p = supply.params
    e0 = (p.n * p.c - price) / (p.n * p.beta * p.delta_c)
    e1 = (p.n * p.c - (price + slope * dt)) / (p.n * p.beta * p.delta_c)
    lo, hi = sorted((e0, e1))
    axis = np.linspace(lo, hi, 2001)
    band = DensityGrid(axis=axis, values=np.array([supply.density(t, e) for e in axis]))
    return integrate_tail(band, lo) / dt


def inflow_by_density(demand, t, price):
    """psi * r * f(t, r) at the cut r = max(p/v, r_m), from the side's own density."""
    p = demand.params
    cut = max(price / p.v, p.r_m)
    return p.psi * cut * demand.density(t, cut)


def flux_stock_regime(demand, supply, t, p_test=None):
    """Oracle: the regime from the client inflow flux over the demand stock
    at a test price (default: the smallest provider's cost), through the
    sides' own density and stock, closed form or quadrature.

    Returns (tag, margin, imbalance); the imbalance psi*(p/v)*f(t, p/v) -
    mu*D(t, p) is the entry flow at the entry price.
    """
    params = supply.params
    p_test = params.entry_price if p_test is None else p_test
    flux = inflow_by_density(demand, t, p_test)
    stock = demand.at(t, p_test)
    assert stock > 0, f"no demand at test price {p_test!r}"
    absorbed = params.mu * stock  # 0 when mu is 0 or the product underflows
    margin = math.inf if absorbed == 0 else flux / absorbed - 1.0
    # the tie belongs to the emerging side; a relative slack keeps exact-tie
    # parameter choices there despite rounding in the flux evaluation
    tag = "emerging" if flux >= absorbed * (1.0 - 1e-12) else "mature"
    return tag, margin, flux - absorbed


def flux_stock_slope(demand, supply, t, price, mode):
    """Oracle: the price slope as (inflow/stock - mu) * S(t, p) over the
    marginal provider density g(t, e_min)/(n*beta*delta_c), weighted by the
    e_min/n clients the marginal firm serves in capacity mode."""
    params = supply.params
    rel_inflow = inflow_by_density(demand, t, price) / demand.at(t, price)
    imbalance = (rel_inflow - params.mu) * supply.at(t, price)
    e_min = min_viable_size(price, params)
    coefficient = supply.density(t, e_min) / (params.n * params.beta * params.delta_c)
    if mode == "capacity":
        coefficient *= e_min / params.n
    return imbalance / coefficient


@st.composite
def jittered_german_markets(draw) -> ModelParams:
    """The German scenario with rates, anchors and mu jittered, mu at least
    0.1% away from the regime tie."""
    provisional = german_transport_params().replace(
        psi=0.036 * draw(st.floats(min_value=0.9, max_value=1.1)),
        alpha=0.073 * draw(st.floats(min_value=0.9, max_value=1.1)),
        mu=draw(st.floats(min_value=0.005, max_value=0.15)),
    )
    threshold = provisional.alpha - provisional.psi
    assume(abs(provisional.mu / threshold - 1.0) > 1e-3)
    anchors = AnchorConditions(
        served0=draw(st.floats(min_value=5e3, max_value=1e4)),
        price0=draw(st.floats(min_value=30e3, max_value=45e3)),
    )
    return anchored_params(provisional, anchors)


class TestSolveEquilibrium:
    def test_calibrated_scenario(self, german_demand, german_supply):
        eq = solve_equilibrium(german_demand, german_supply, 0.0)
        assert eq.price == pytest.approx(37_000.0, abs=1e-6)
        assert eq.served == pytest.approx(7500.0, rel=1e-8)
        assert eq.marginal_size == pytest.approx(2600.0, rel=1e-9)
        assert eq.required_share == pytest.approx(0.52, rel=1e-9)
        assert eq.required_share_complement == pytest.approx(0.48, rel=1e-9)
        assert eq.regime.is_mature
        assert eq.exit_rate is not None and eq.entry_rate is None

    def test_cleared_stocks_match(self, german_demand, german_supply):
        eq = solve_equilibrium(german_demand, german_supply, 0.0)
        supply_there = german_supply.at(0.0, eq.price)
        assert abs(eq.served - supply_there) < 1e-3

    def test_time_invariant_price_when_growth_rates_match(self):
        params = german_transport_params(mu=0.073)  # mu == alpha
        demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
        p0 = solve_equilibrium(demand, supply, 0.0).price
        p3 = solve_equilibrium(demand, supply, 3.0).price
        assert p3 == pytest.approx(p0, abs=1e-5)

    def test_synthetic_linear_curves(self):
        params = ModelParams(
            v=0.5, n=1.0, c=60.0, delta_c=30.0, beta=0.002,
            psi=0.03, mu=0.04, alpha=0.05, r_m=10.0, f0=1.0, g0=1.0,
        )

        @dataclass
        class LinearDemand:
            params: ModelParams

            def curve(self, t):
                return lambda p: 100.0 - p

            def density(self, t, r):
                return 1.0

        @dataclass
        class LinearSupply:
            params: ModelParams

            def curve(self, t):
                return lambda p: p

            def density(self, t, e):
                return 1.0

        eq = solve_equilibrium(LinearDemand(params), LinearSupply(params), 0.0)
        assert eq.price == pytest.approx(50.0, abs=1e-6)
        assert eq.served == pytest.approx(50.0, abs=1e-5)

    def test_market_cannot_clear(self, german_params):
        # demand blown up far beyond any supply on the price domain
        params = german_params.replace(f0=german_params.f0 * 1e6)
        demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
        with pytest.raises(NumericError, match="cannot clear"):
            solve_equilibrium(demand, supply, 0.0)

    def test_grid_sides_clear_past_the_demand_cap(self):
        # the entry price lies past the 512-point demand grid, where D is 0
        params = german_transport_params(mu=0.05).replace(v=2e-5)
        assert params.entry_price / params.v > DEMAND_CAP_FACTOR * params.r_m
        eq = solve_equilibrium(DemandSide.with_grid(params), SupplySide.with_grid(params), 0.0)
        assert eq.regime.is_mature
        assert params.cost_floor < eq.price < params.entry_price
        assert eq.price_slope < 0 and eq.exit_rate > 0

    def test_grid_solve_returns_python_floats(self):
        params = german_transport_params(mu=0.05).replace(v=2e-5)
        eq = solve_equilibrium(DemandSide.with_grid(params), SupplySide.with_grid(params), 0.0)
        assert type(eq.price) is float and type(eq.served) is float

    def test_no_grid_demand_above_the_floor_cannot_clear(self):
        # floor/v lies past the 512-point demand grid: D is 0 at every viable price
        params = german_transport_params(mu=0.05).replace(v=1e-5)
        with pytest.raises(NumericError, match="cannot clear"):
            solve_equilibrium(DemandSide.with_grid(params), SupplySide.with_grid(params), 0.0)

    def test_mismatched_params_rejected(self, german_demand, german_params):
        other = SupplySide.closed_form(german_params.replace(g0=1.0))
        with pytest.raises(DomainError):
            solve_equilibrium(german_demand, other, 0.0)


class TestClassifyRegime:
    def test_calibrated_growth_is_mature(self, german_demand, german_supply):
        label = classify_regime(german_demand, german_supply, 0.0)
        assert label.is_mature
        assert label.margin == pytest.approx(0.037 / 0.05 - 1.0, rel=1e-9)

    def test_slow_provider_growth_is_emerging(self):
        params = german_transport_params(mu=0.03)
        demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
        label = classify_regime(demand, supply, 0.0)
        assert label.is_emerging
        # oracle: direct flux evaluation at an arbitrary price
        for p_test in (34_000.0, 40_000.0, 49_000.0):
            flux = params.psi * (p_test / params.v) * demand.density(0.0, p_test / params.v)
            assert flux >= params.mu * demand.at(0.0, p_test)

    def test_tie_classifies_emerging(self):
        params = german_transport_params(mu=0.073 - 0.036)
        demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
        assert classify_regime(demand, supply, 0.0).is_emerging
        assert classify_regime(demand, supply, 0.0).margin == 0.0

    def test_label_independent_of_test_price(self, german_demand, german_supply, german_params):
        # the oracle's flux/stock tag agrees with the label at every test price
        lo = german_params.cost_floor
        hi = german_params.full_local_cost
        labels = {
            flux_stock_regime(german_demand, german_supply, 0.0, p_test)[0]
            for p_test in np.linspace(lo + 1.0, hi, 25)
        }
        assert labels == {classify_regime(german_demand, german_supply, 0.0).tag} == {"mature"}

    def test_margin_constant_over_prices_and_time(self, german_demand, german_supply, german_params):
        # flux/(mu*stock) reduces to (alpha - psi)/mu for every p and t
        p = german_params
        expected = (p.alpha - p.psi) / p.mu - 1.0
        for t in (0.0, 3.0):
            assert classify_regime(german_demand, german_supply, t).margin == pytest.approx(expected, rel=1e-12)
            for p_test in np.geomspace(p.v * p.r_m, p.full_local_cost, 10):
                margin = flux_stock_regime(german_demand, german_supply, t, p_test)[1]
                assert margin == pytest.approx(expected, rel=1e-12)

    @given(data=st.data(), psi=st.floats(1e-6, 0.5), ulps=st.integers(-4, 4))
    @settings(max_examples=200)
    def test_margin_sign_at_the_tie(self, german_params, data, psi, ulps):
        # mu within a few ulps of alpha - psi, the exact tie included
        alpha = data.draw(st.floats(psi, psi + 1.0, exclude_min=True))
        mu = alpha - psi
        for _ in range(abs(ulps)):
            mu = math.nextafter(mu, math.copysign(math.inf, ulps))
        params = german_params.replace(alpha=alpha, psi=psi, mu=mu)
        label = classify_regime(DemandSide.closed_form(params), SupplySide.closed_form(params), 0.0)
        assert (label.margin >= 0) == label.is_emerging == (ulps <= 0)
        still = params.replace(mu=0.0)
        at_zero = classify_regime(DemandSide.closed_form(still), SupplySide.closed_form(still), 0.0)
        assert at_zero.is_emerging and at_zero.margin == math.inf

    def test_zero_mu_is_emerging_with_infinite_margin(self):
        params = german_transport_params(mu=0.0)
        demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
        label = classify_regime(demand, supply, 0.0)
        assert label.is_emerging
        assert math.isinf(label.margin)

    def test_underflowing_capacity_is_emerging_with_infinite_margin(self):
        # (alpha - psi)/mu overflows although mu > 0
        params = german_transport_params(mu=5e-324)
        params = params.replace(f0=1e-5 * params.f0)  # D(0, entry price) below 0.5
        demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
        label = classify_regime(demand, supply, 0.0)
        assert label.is_emerging
        assert math.isinf(label.margin)


class TestEntryRate:
    def test_wrong_regime_rejected(self, german_demand, german_supply):
        with pytest.raises(RegimeError):
            entry_rate(german_demand, german_supply, 0.0)

    def test_zero_mu_entry_equals_net_demand_growth(self):
        params = german_transport_params(mu=0.0)
        demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
        got = entry_rate(demand, supply, 0.0)
        p_star = params.entry_price
        expected = (params.alpha - params.psi) * demand.at(0.0, p_star)
        assert got == pytest.approx(expected, rel=1e-9)
        # cross-check the flux identity by finite-differencing D in t:
        # psi*(p/v)*f = dD/dt - psi*D
        h = 1e-6
        dD_dt = (demand.at(h, p_star) - demand.at(0.0, p_star)) / h
        assert got == pytest.approx(dD_dt - params.psi * demand.at(0.0, p_star), rel=1e-4)

    def test_boundary_growth_rate_gives_zero_entry(self):
        params = german_transport_params(mu=0.073 - 0.036)
        demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
        assert abs(entry_rate(demand, supply, 0.0)) < 1e-9 * demand.at(0.0, params.entry_price)


class TestExitRate:
    def test_calibrated_example_vs_mass_crossing_oracle(self, german_supply):
        got = exit_rate(german_supply, 0.0, 37_000.0, -185.0)
        assert got == pytest.approx(0.0444711538461, rel=1e-9)
        oracle = exit_rate_by_mass_crossing(german_supply, 0.0, 37_000.0, -185.0)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_zero_slope(self, german_supply):
        assert exit_rate(german_supply, 0.0, 37_000.0, 0.0) == 0.0

    def test_linear_in_slope(self, german_supply):
        one = exit_rate(german_supply, 0.0, 37_000.0, -185.0)
        two = exit_rate(german_supply, 0.0, 37_000.0, -370.0)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_positive_slope_rejected(self, german_supply):
        with pytest.raises(RegimeError):
            exit_rate(german_supply, 0.0, 37_000.0, 5.0)


class TestPriceSlope:
    def test_capacity_mode_calibrated(self, german_demand, german_supply):
        got = price_slope(german_demand, german_supply, 0.0, 37_000.0, "capacity")
        assert got == pytest.approx(-156.0, rel=1e-9)

    def test_literal_mode_calibrated(self, german_demand, german_supply):
        got = price_slope(german_demand, german_supply, 0.0, 37_000.0, "literal")
        assert got == pytest.approx(-405_600.0, rel=1e-9)
        # identical balance, weighted by the marginal firm's e_min/n capacity
        capacity = price_slope(german_demand, german_supply, 0.0, 37_000.0, "capacity")
        assert got == pytest.approx(capacity * 2600.0, rel=1e-9)

    def test_capacity_mode_closed_form_identity(self, german_demand, german_supply, german_params):
        # dP/dt = (alpha - psi - mu) * (P - floor) for closed-form curves
        p = german_params
        rate = p.alpha - p.psi - p.mu
        for t in (0.0, 2.5, 7.0):
            for price in np.linspace(p.cost_floor + 500.0, p.entry_price - 5.0, 9):
                got = price_slope(german_demand, german_supply, t, price, "capacity")
                assert got == pytest.approx(rate * (price - p.cost_floor), rel=1e-9)

    def test_balanced_rates_give_flat_price(self):
        params = german_transport_params(mu=0.073 - 0.036)
        demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
        got = price_slope(demand, supply, 0.0, 37_000.0, "capacity")
        assert abs(got) < 1e-9 * 12_000.0

    def test_unknown_mode_rejected(self, german_demand, german_supply):
        with pytest.raises(DomainError):
            price_slope(german_demand, german_supply, 0.0, 37_000.0, "hybrid")

    @pytest.mark.parametrize(
        "price, error",
        [
            (25_000.0, BelowCostFloorError),
            (20_000.0, BelowCostFloorError),
            (50_001.0, DomainError),
            (math.nan, DomainError),
            (-math.inf, DomainError),
        ],
    )
    def test_price_outside_the_domain_rejected(self, german_demand, german_supply, price, error):
        with pytest.raises(error):
            price_slope(german_demand, german_supply, 0.0, price)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda d, s, t: classify_regime(d, s, t),
        lambda d, s, t: entry_rate(d, s, t),
        lambda d, s, t: price_slope(d, s, t, 37_000.0),
        lambda d, s, t: solve_equilibrium(d, s, t),
    ],
)
def test_time_outside_the_domain_rejected(german_demand, german_supply, call, t):
    with pytest.raises(DomainError, match="time must be finite"):
        call(german_demand, german_supply, t)


def oracle_gaps(demand, supply, t, price):
    """Relative gaps between the closed forms and the flux/stock oracle.

    The margin is compared as 1 + margin, the ratio of inflow to absorbed
    flow.  The entry flow and the slope are differences of two flows, so
    they are compared on the scale of their terms; near the regime tie the
    difference itself keeps no digits of the terms' rounding.
    """
    params = supply.params
    label = classify_regime(demand, supply, t)
    tag, margin, flow = flux_stock_regime(demand, supply, t)
    assert label.tag == tag
    threshold = params.alpha - params.psi
    terms = (threshold + params.mu) / abs(threshold - params.mu)
    gaps = {"margin": abs((1.0 + label.margin) / (1.0 + margin) - 1.0)}
    if label.is_emerging:
        gaps["entry"] = abs(entry_rate(demand, supply, t) - flow) / (abs(flow) * terms)
    for mode in ("capacity", "literal"):
        oracle = flux_stock_slope(demand, supply, t, price, mode)
        gaps[mode] = abs(price_slope(demand, supply, t, price, mode) - oracle) / (abs(oracle) * terms)
    return gaps


class TestFluxStockOracle:
    """The regime, margin, slope and entry flow of ``equilibrium`` come from
    the closed forms of ``model``; the flux/stock evaluation through the
    curve sides is their oracle, on closed-form and grid-backed sides."""

    @given(
        params=jittered_german_markets(),
        t=st.floats(min_value=0.0, max_value=10.0),
        frac=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_form_sides(self, params, t, frac):
        demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
        price = params.cost_floor + frac * params.n * params.delta_c
        gaps = oracle_gaps(demand, supply, t, price)
        assert max(gaps.values()) <= 1e-12, gaps

    @given(
        params=jittered_german_markets(),
        t=st.floats(min_value=0.0, max_value=10.0),
        frac=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_sides(self, params, t, frac):
        demand = DemandSide.with_grid(params, cap_factor=1e10, points=8193)
        supply = SupplySide.with_grid(params, points=8193)
        price = params.cost_floor + frac * params.n * params.delta_c
        gaps = oracle_gaps(demand, supply, t, price)
        assert max(gaps.values()) <= 1e-5, gaps
