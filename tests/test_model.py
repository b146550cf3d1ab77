"""Cost algebra of the core model: offshoring fraction, engagement cost,
viability thresholds, profitability frontier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consultmarket import (
    DomainError,
    ModelParams,
    RegimeError,
    engagement_cost,
    min_viable_size,
    offshore_fraction,
    profitability_threshold_size,
    required_offshore_share,
)
from consultmarket import model
from consultmarket.errors import BelowCostFloorError


BASE_PARAMS = ModelParams(
    v=0.025, n=1.0, c=50_000.0, delta_c=25_000.0, beta=0.0002,
    psi=0.036, mu=0.05, alpha=0.073, r_m=1.3e6, f0=1.0, g0=1.0,
)


def smallest_viable_on_grid(price: float, params: ModelParams, points: int = 2_000_001) -> float:
    """Brute-force oracle: smallest size on a fine grid whose engagement
    cost does not exceed the price."""
    grid = np.linspace(params.n, 1.0 / params.beta, points)
    costs = params.n * (params.c - np.minimum(params.beta * grid, 1.0) * params.delta_c)
    viable = grid[costs <= price]
    return float(viable[0])


def frontier_by_margin_fd(price: float, slope: float, params: ModelParams) -> float:
    """Oracle for the profitability frontier: bisect the provider size whose
    per-engagement margin is stationary under one small finite-difference
    step of simultaneous growth (size at rate mu) and price drift."""
    h = 1e-7

    def margin_derivative(e: float) -> float:
        def margin(dt: float) -> float:
            e_t = e * math.exp(params.mu * dt)
            p_t = price + slope * dt
            return p_t - params.n * (
                params.c - min(params.beta * e_t, 1.0) * params.delta_c
            )

        return (margin(h) - margin(-h)) / (2 * h)

    lo, hi = params.n, 1.0 / params.beta
    assert margin_derivative(lo) < 0 < margin_derivative(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if margin_derivative(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestOffshoreFraction:
    def test_calibrated_large_firm_reaches_twenty_percent(self, german_params):
        assert offshore_fraction(1000.0, german_params) == pytest.approx(0.20, abs=1e-15)

    def test_zero_size(self, german_params):
        assert offshore_fraction(0.0, german_params) == 0.0

    def test_caps_at_full_displacement(self, german_params):
        assert offshore_fraction(6000.0, german_params) == 1.0
        assert offshore_fraction(1.0 / german_params.beta, german_params) == 1.0

    def test_negative_size_rejected(self, german_params):
        with pytest.raises(DomainError):
            offshore_fraction(-1.0, german_params)

    @given(e=st.floats(min_value=0, max_value=1e6), bump=st.floats(min_value=0, max_value=1e4))
    def test_monotone_and_lipschitz(self, e, bump):
        lo = offshore_fraction(e, BASE_PARAMS)
        hi = offshore_fraction(e + bump, BASE_PARAMS)
        assert hi >= lo
        assert hi - lo <= BASE_PARAMS.beta * bump + 1e-12


class TestEngagementCost:
    def test_calibrated_midsize_firm(self, german_params):
        # oracle: direct substitution n*(c - beta*e*delta_c) at e = 2600
        assert engagement_cost(2600.0, german_params) == pytest.approx(37_000.0, rel=1e-12)

    def test_full_offshore_floor(self, german_params):
        assert engagement_cost(1.0 / german_params.beta, german_params) == 25_000.0
        assert engagement_cost(9999.0, german_params) == 25_000.0

    def test_vanishing_beta_limit(self):
        params = ModelParams(
            v=0.025, n=1, c=50_000, delta_c=25_000, beta=1e-12,
            psi=0.036, mu=0.05, alpha=0.073, r_m=1.3e6, f0=1.0, g0=1.0,
        )
        assert engagement_cost(100.0, params) == pytest.approx(50_000.0, rel=1e-9)

    def test_non_increasing(self, german_params):
        sizes = np.linspace(0, 6000, 200)
        costs = [engagement_cost(e, german_params) for e in sizes]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


class TestMinViableSize:
    def test_calibrated_price_vs_grid_scan(self, german_params):
        got = min_viable_size(37_000.0, german_params)
        assert got == pytest.approx(2600.0, rel=1e-12)
        assert got == pytest.approx(smallest_viable_on_grid(37_000.0, german_params), rel=1e-5)

    def test_clamps_at_smallest_size(self, german_params):
        assert min_viable_size(german_params.full_local_cost, german_params) == 1.0
        assert min_viable_size(49_999.0, german_params) == 1.0

    def test_floor_limit_requires_full_offshoring(self, german_params):
        near_floor = german_params.cost_floor + 1e-6
        assert min_viable_size(near_floor, german_params) == pytest.approx(5000.0, rel=1e-9)

    def test_below_floor_rejected(self, german_params):
        with pytest.raises(BelowCostFloorError):
            min_viable_size(german_params.cost_floor, german_params)
        with pytest.raises(BelowCostFloorError):
            min_viable_size(10_000.0, german_params)

    @given(frac=st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(max_examples=200)
    def test_cost_inverse_round_trip(self, frac):
        # open interval between the floor and the smallest provider's cost,
        # where the clamp at n is inactive
        params = BASE_PARAMS
        p = params.cost_floor + frac * (params.entry_price - params.cost_floor)
        assert engagement_cost(min_viable_size(p, params), params) == pytest.approx(p, rel=1e-9)


class TestRequiredOffshoreShare:
    def test_calibrated_price(self, german_params):
        assert required_offshore_share(37_000.0, german_params) == pytest.approx(0.52, rel=1e-12)

    def test_boundaries(self, german_params):
        assert required_offshore_share(german_params.full_local_cost, german_params) == 0.0
        assert required_offshore_share(german_params.cost_floor, german_params) == 1.0

    def test_outside_domain_rejected(self, german_params):
        for p in (24_999.0, 50_001.0):
            with pytest.raises(DomainError):
                required_offshore_share(p, german_params)

    def test_affine_with_known_slope(self, german_params):
        p = german_params
        prices = np.linspace(p.cost_floor, p.full_local_cost, 11)
        shares = [required_offshore_share(x, p) for x in prices]
        slopes = np.diff(shares) / np.diff(prices)
        assert np.allclose(slopes, -1.0 / (p.n * p.delta_c), rtol=1e-12)

    def test_matches_marginal_provider_fraction(self, german_params):
        # equals offshore_fraction(min_viable_size(p)) while the clamp is inactive
        for p in (28_000.0, 37_000.0, 45_000.0):
            e = min_viable_size(p, german_params)
            assert required_offshore_share(p, german_params) == pytest.approx(
                offshore_fraction(e, german_params), rel=1e-12
            )


class TestProfitabilityThreshold:
    def test_calibrated_decline_vs_fd_oracle(self, german_params):
        got = profitability_threshold_size(-185.0, german_params)
        assert got == pytest.approx(740.0, rel=1e-12)
        oracle = frontier_by_margin_fd(37_000.0, -185.0, german_params)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_flat_prices(self, german_params):
        assert profitability_threshold_size(0.0, german_params) == 0.0
        assert profitability_threshold_size(12.0, german_params) == 0.0

    def test_linear_in_slope(self, german_params):
        assert profitability_threshold_size(-370.0, german_params) == pytest.approx(
            1480.0, rel=1e-12
        )

    def test_zero_mu_with_decline_signaled(self, german_params):
        params = german_params.replace(mu=0.0)
        with pytest.raises(RegimeError):
            profitability_threshold_size(-10.0, params)

    def test_non_finite_rejected(self, german_params):
        with pytest.raises(DomainError):
            profitability_threshold_size(float("nan"), german_params)

    def test_scaling_in_each_coefficient(self, german_params):
        base = profitability_threshold_size(-100.0, german_params)
        for field in ("beta", "mu", "n", "delta_c"):
            scaled = german_params.replace(**{field: getattr(german_params, field) * 2})
            assert profitability_threshold_size(-100.0, scaled) == pytest.approx(
                base / 2, rel=1e-12
            )


class TestModelParamsValidation:
    BAD = [
        dict(v=0.0),
        dict(n=0.5),
        dict(c=-1.0),
        dict(delta_c=0.0),
        dict(delta_c=60_000.0),
        dict(beta=0.0),
        dict(beta=1.5, n=1.0),
        dict(psi=0.0),
        dict(mu=-0.01),
        dict(alpha=0.036),  # equality with psi must fail
        dict(alpha=0.01),
        dict(r_m=0.0),
        dict(f0=0.0),
        dict(g0=-1.0),
        dict(c=math.inf),
        dict(mu=math.inf),
        dict(alpha=math.inf),
        dict(f0=math.nan),
    ]

    @pytest.mark.parametrize("override", BAD)
    def test_invalid_rejected(self, override):
        base = dict(
            v=0.025, n=1.0, c=50_000.0, delta_c=25_000.0, beta=0.0002,
            psi=0.036, mu=0.05, alpha=0.073, r_m=1.3e6, f0=1.0, g0=1.0,
        )
        with pytest.raises(DomainError):
            ModelParams(**{**base, **override})

    def test_bounds(self, german_params):
        b = german_params.bounds
        assert b.e_min_domain == german_params.n
        assert b.e_max_domain == pytest.approx(5000.0)

    def test_entry_price_is_computed_once_and_is_no_field(self, german_params):
        params = german_params.replace(mu=0.06)
        fresh = params.replace()
        assert params.entry_price == engagement_cost(params.n, params) == 49_995.0
        assert params.entry_price is params.entry_price
        assert "entry_price" not in ModelParams.field_names()
        assert params == fresh and hash(params) == hash(fresh)
        assert params.replace(n=2.0).entry_price == engagement_cost(2.0, params.replace(n=2.0))


class TestClosedForms:
    """Each closed form of ``model`` gives the same values on an array as on
    its elements one float at a time (numpy's power may differ from the C
    library's in the last bit, so the comparison is relative to 1e-14)."""

    PRICES = np.linspace(25_000.0, 50_000.0, 41)[1:]  # every curve branch, floor excluded
    FORMS = [
        lambda p, g, x: model.demand_curve(p, g, x),
        lambda p, g, x: model.supply_curve(p, g, x),
        lambda p, g, x: model.demand_density(p, g, x / p.v),
        lambda p, g, x: model.supply_density(p, g, model.marginal_size(p, x)),
        lambda p, g, x: model.marginal_size(p, x),
        lambda p, g, x: model.required_share(p, x),
        lambda p, g, x: model.decline_slope(p, x, literal=False),
        lambda p, g, x: model.decline_slope(p, x, literal=True),
        lambda p, g, x: model.profit_frontier(p, model.decline_slope(p, x, literal=True)),
        lambda p, g, x: model.exit_flow(p, g / x, -x),
        lambda p, g, x: model.inflow_flux(p, g * x, 40_000.0),
        # t from 0 to 24.4 years below the cap; from above it (cap 24 995),
        # t from 0 to 0.024 years, across the end of the linear phase at 0.007
        lambda p, g, x: model.decline_gap(p, 12_000.0, (x - 25_625.0) / 1e3, literal=False),
        lambda p, g, x: model.decline_gap(p, 12_000.0, (x - 25_625.0) / 1e3, literal=True),
        lambda p, g, x: model.decline_gap(p, 24_999.0, (x - 25_625.0) / 1e6, literal=False),
        lambda p, g, x: model.decline_gap(p, 24_999.0, (x - 25_625.0) / 1e6, literal=True),
    ]

    @pytest.mark.parametrize("form", range(len(FORMS)))
    @pytest.mark.parametrize("v", [0.015, 0.035])  # v*r_m below and inside the price domain
    def test_array_equals_floats(self, form, v):
        fn, params = self.FORMS[form], BASE_PARAMS.replace(v=v, mu=0.06)
        growth = np.exp(0.07 * np.arange(len(self.PRICES)))
        on_array = fn(params, growth, self.PRICES)
        on_floats = [fn(params, g, x) for g, x in zip(growth.tolist(), self.PRICES.tolist())]
        assert all(type(value) is float for value in on_floats)
        assert on_array.tolist() == pytest.approx(on_floats, rel=1e-14, abs=0.0)
