"""Demand/supply curves: closed forms, quadrature cross-checks, transport."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consultmarket import (
    DemandSide,
    DensityGrid,
    DomainError,
    ModelParams,
    SupplySide,
    evolve_density,
)
from consultmarket.errors import BelowCostFloorError, NumericError

# frozen t=0 anchor solve for the calibrated scenario (see test_calibration)
F0_ANCHORED = 0.09280620976863879
G0_ANCHORED = 3.125


@st.composite
def valid_params(draw):
    psi = draw(st.floats(min_value=0.01, max_value=0.06))
    ratio = draw(st.floats(min_value=1.6, max_value=3.5))
    n = draw(st.sampled_from([1.0, 2.0, 3.0]))
    c = draw(st.floats(min_value=3e4, max_value=8e4))
    delta_c = c * draw(st.floats(min_value=0.3, max_value=0.9))
    return ModelParams(
        v=draw(st.floats(min_value=0.01, max_value=0.05)),
        n=n,
        c=c,
        delta_c=delta_c,
        beta=draw(st.floats(min_value=1e-4, max_value=1e-3)) / n,
        psi=psi,
        mu=draw(st.floats(min_value=0.0, max_value=0.1)),
        alpha=psi * ratio,
        r_m=draw(st.floats(min_value=1e5, max_value=5e6)),
        f0=draw(st.floats(min_value=0.01, max_value=10.0)),
        g0=draw(st.floats(min_value=0.1, max_value=50.0)),
    )


class TestDemandDensity:
    def test_at_entrant_revenue(self, german_demand, german_params):
        got = german_demand.density(0.0, german_params.r_m)
        assert got == pytest.approx(german_params.alpha * F0_ANCHORED, rel=1e-12)

    def test_at_affordability_cut_of_anchor_price(self, german_demand, german_params):
        p = german_params
        # independent evaluation through the log/exp composition
        oracle = p.alpha * p.f0 * math.exp(-(p.alpha / p.psi) * math.log(1.48e6 / p.r_m))
        got = german_demand.density(0.0, 1.48e6)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(5.2083333e-3, rel=1e-6)

    def test_separable_time_factor(self, german_demand, german_params):
        for r in (1.3e6, 2.6e6, 1e8):
            ratio = german_demand.density(4.0, r) / german_demand.density(0.0, r)
            assert ratio == pytest.approx(math.exp(german_params.alpha * 4.0), rel=1e-12)

    def test_below_entrant_revenue_rejected(self, german_demand):
        with pytest.raises(DomainError):
            german_demand.density(0.0, 1.0e6)


class TestDemandAt:
    def test_anchored_served_count(self, german_demand):
        assert german_demand.at(0.0, 37_000.0) == pytest.approx(7500.0, rel=1e-12)

    def test_full_population_below_entry_benefit(self, german_demand, german_params):
        p = german_params
        # analytic tail integral with the anchored normalization
        population = p.alpha * p.f0 * p.r_m * p.psi / (p.alpha - p.psi)
        assert population == pytest.approx(8569.27392036696, rel=1e-10)
        assert german_demand.at(0.0, p.v * p.r_m) == pytest.approx(population, rel=1e-12)
        assert german_demand.at(0.0, 100.0) == pytest.approx(population, rel=1e-12)

    def test_closed_vs_quadrature(self, german_params):
        closed = DemandSide.closed_form(german_params)
        numeric = DemandSide.with_grid(german_params, cap_factor=1e10, points=2**16 + 1)
        p0 = german_params.v * german_params.r_m
        for price in np.linspace(p0, 3 * p0, 7):
            a, b = closed.at(0.0, price), numeric.at(0.0, price)
            assert abs(a - b) / a < 1e-6

    def test_strictly_decreasing(self, german_demand, german_params):
        p0 = german_params.v * german_params.r_m
        prices = np.linspace(p0, 4 * p0, 50)
        values = [german_demand.at(0.0, x) for x in prices]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_price_rejected(self, german_demand):
        with pytest.raises(DomainError):
            german_demand.at(0.0, -1.0)
        with pytest.raises(DomainError):
            german_demand.at(0.0, float("nan"))

    @given(params=valid_params(), x=st.floats(min_value=1.0, max_value=2.5), t=st.floats(min_value=0, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_decreasing_property(self, params, x, t):
        demand = DemandSide.closed_form(params)
        base = params.v * params.r_m
        assert demand.at(t, base * x) > demand.at(t, base * x * 1.05)


class TestSupplyDensity:
    def test_zipf_left_edge(self, german_supply):
        assert german_supply.density(0.0, 1.0) == pytest.approx(G0_ANCHORED, rel=1e-12)

    def test_at_marginal_size(self, german_supply):
        assert german_supply.density(0.0, 2600.0) == pytest.approx(G0_ANCHORED / 2600.0, rel=1e-12)

    def test_separable_time_factor(self, german_supply, german_params):
        ratio = german_supply.density(3.0, 100.0) / german_supply.density(0.0, 100.0)
        assert ratio == pytest.approx(math.exp(german_params.mu * 3.0), rel=1e-12)

    def test_outside_size_domain_rejected(self, german_supply):
        for e in (0.5, 5001.0):
            with pytest.raises(DomainError):
                german_supply.density(0.0, e)


class TestSupplyAt:
    def test_anchored_capacity(self, german_supply, german_params):
        assert german_supply.at(0.0, 37_000.0) == pytest.approx(7500.0, rel=1e-12)
        numeric = SupplySide.with_grid(german_params)
        assert numeric.at(0.0, 37_000.0) == pytest.approx(7500.0, rel=1e-9)

    def test_zero_at_cost_floor(self, german_supply, german_params):
        assert german_supply.at(0.0, german_params.cost_floor) == 0.0

    def test_separable_time_factor(self, german_supply, german_params):
        ratio = german_supply.at(2.0, 37_000.0) / german_supply.at(0.0, 37_000.0)
        assert ratio == pytest.approx(math.exp(german_params.mu * 2.0), rel=1e-12)

    def test_saturates_once_smallest_provider_viable(self, german_supply, german_params):
        p = german_params
        level = p.g0 / (p.n * p.beta) * (1.0 - p.beta * p.n)
        assert level == pytest.approx(15_621.875, rel=1e-12)
        assert german_supply.at(0.0, p.entry_price) == pytest.approx(level, rel=1e-12)
        assert german_supply.at(0.0, p.full_local_cost) == pytest.approx(level, rel=1e-12)
        numeric = SupplySide.with_grid(p)
        assert numeric.at(0.0, p.full_local_cost) == pytest.approx(level, rel=1e-9)

    def test_domain_errors(self, german_supply, german_params):
        with pytest.raises(BelowCostFloorError):
            german_supply.at(0.0, german_params.cost_floor - 1.0)
        with pytest.raises(DomainError):
            german_supply.at(0.0, german_params.full_local_cost + 1.0)

    @given(params=valid_params(), x=st.floats(min_value=0.01, max_value=0.95), t=st.floats(min_value=0, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_non_decreasing_property(self, params, x, t):
        supply = SupplySide.closed_form(params)
        lo = params.cost_floor
        p1 = lo + x * (params.full_local_cost - lo)
        p2 = lo + min(x * 1.05, 0.999) * (params.full_local_cost - lo)
        assert supply.at(t, p2) >= supply.at(t, p1) - 1e-12

    def test_closed_vs_quadrature_everywhere(self, german_params):
        closed = SupplySide.closed_form(german_params)
        numeric = SupplySide.with_grid(german_params)
        lo = german_params.cost_floor
        hi = german_params.full_local_cost
        for price in np.linspace(lo + 100.0, hi, 9):
            a, b = closed.at(0.0, price), numeric.at(0.0, price)
            assert abs(a - b) / a < 1e-9  # Zipf-weighted integrand is constant


def characteristic_demand_grid(params, shift_cells: int = 64, t: float = 5.0):
    """Log axis whose step divides psi*t exactly, so characteristics map
    grid nodes onto grid nodes and interpolation drops out."""
    step = params.psi * t / shift_cells
    n_cells = shift_cells * math.ceil(math.log(1e3) / (step * shift_cells)) * 2
    axis = params.r_m * np.exp(step * np.arange(n_cells + 1))
    values = params.alpha * params.f0 * (axis / params.r_m) ** (-params.alpha / params.psi)
    return DensityGrid(axis=axis, values=values), step


def _bad_prices(params):
    """(side, price, error type, message) for every out-of-domain price."""
    cases = [("demand", x, DomainError, "price must be finite and >= 0") for x in (-1.0, -math.inf, math.inf, math.nan)]
    cases += [("supply", x, DomainError, "price must be finite,") for x in (-math.inf, math.inf, math.nan)]
    cases += [
        ("supply", params.cost_floor - 1.0, BelowCostFloorError, "below the cost floor"),
        ("supply", params.full_local_cost + 1.0, DomainError, "above the full local cost"),
    ]
    return cases


class TestCurveAtOneInstant:
    """``curve(t)`` is the one evaluator; ``at(t, p)`` is ``curve(t)(p)``."""

    @pytest.mark.parametrize("grid", [False, True])
    def test_same_errors_as_at(self, german_params, grid):
        sides = {
            "demand": DemandSide.with_grid(german_params, points=64) if grid else DemandSide.closed_form(german_params),
            "supply": SupplySide.with_grid(german_params, points=64) if grid else SupplySide.closed_form(german_params),
        }
        for name, price, error, message in _bad_prices(german_params):
            for evaluate in (sides[name].curve(1.0), lambda x: sides[name].at(1.0, x)):
                with pytest.raises(DomainError, match=message) as info:
                    evaluate(price)
                assert info.type is error
        for side in sides.values():
            for t in (-1.0, math.inf, math.nan):
                with pytest.raises(DomainError, match="time must be finite and >= 0") as info:
                    side.curve(t)
                assert info.type is DomainError

    def test_overflowing_growth_is_numeric_error(self, german_params):
        for side in (DemandSide.closed_form(german_params), SupplySide.closed_form(german_params)):
            with pytest.raises(NumericError, match="overflows"):
                side.curve(1e300)
            with pytest.raises(NumericError, match="overflows"):
                side.at(1e300, 37_000.0)


class TestEvolveDensity:
    def test_time_zero_is_identity(self, german_params):
        grid = DensityGrid.log_spaced(1.0, 100.0, lambda x: 1.0 / x, points=32)
        out = evolve_density(grid, rate=0.05, t=0.0)
        assert out.grid is grid
        assert out.truncated_mass == 0.0

    def test_point_mass_advects_one_characteristic(self):
        step = 0.05
        axis = np.exp(step * np.arange(41))
        values = np.zeros(41)
        values[10] = 2.5
        grid = DensityGrid(axis=axis, values=values)
        out = evolve_density(grid, rate=1.0, t=3 * step)  # exactly 3 cells
        assert out.grid.values[13] == pytest.approx(2.5, rel=1e-12)
        others = np.delete(out.grid.values, 13)
        assert np.all(np.abs(others) < 1e-10)

    def test_demand_density_matches_closed_form(self, german_params):
        p = german_params
        t = 5.0
        grid, step = characteristic_demand_grid(p, shift_cells=64, t=t)
        inflow = lambda s: p.alpha * p.f0 * math.exp(p.alpha * s)
        out = evolve_density(grid, rate=p.psi, t=t, inflow=inflow)
        expected = p.alpha * p.f0 * math.exp(p.alpha * t) * (grid.axis / p.r_m) ** (-p.alpha / p.psi)
        rel = np.abs(out.grid.values - expected) / expected
        assert rel.max() < 1e-6

    def test_characteristics_invariance(self, german_params):
        # density is carried unchanged along r -> r * exp(psi * t)
        p = german_params
        t = 5.0
        grid, step = characteristic_demand_grid(p, shift_cells=64, t=t)
        out = evolve_density(grid, rate=p.psi, t=t, inflow=lambda s: 0.0)
        # skip the first image node: its pre-image sits within one ulp of the
        # boundary and may legitimately classify as inflow
        shift = 64
        carried = out.grid.values[shift + 1 :]
        original = grid.values[1 : 1 + carried.size]
        rel = np.abs(carried - original) / original
        assert rel.max() < 1e-9

    def test_truncated_mass_is_reported(self):
        axis = np.exp(np.linspace(0.0, 1.0, 65))
        grid = DensityGrid(axis=axis, values=np.ones(65))
        rate, t = 1.0, 0.25
        out = evolve_density(grid, rate=rate, t=t)
        expected = math.e - math.exp(1.0 - rate * t)
        assert out.truncated_mass == pytest.approx(expected, rel=1e-12)

    def test_invalid_rate_rejected(self):
        grid = DensityGrid.log_spaced(1.0, 10.0, lambda x: x * 0 + 1.0, points=16)
        with pytest.raises(DomainError):
            evolve_density(grid, rate=0.0, t=1.0)
