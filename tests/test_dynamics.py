"""Trajectory simulation and parameter sweeps for the calibrated scenario."""

import math
from dataclasses import replace

import numpy as np
import pytest

from consultmarket import (
    DomainError,
    NumericError,
    ScenarioConfig,
    simulate,
    summarize,
    sweep,
)
from consultmarket import dynamics
from consultmarket.dynamics import FLOOR_TOL, sweep_values
from consultmarket.scenarios import german_transport_scenario
from test_trajectory_kernel import exact_gap, stop_time


def analytic_price(t: float, mu: float, p0: float = 37_000.0, floor: float = 25_000.0) -> float:
    return floor + (p0 - floor) * math.exp((0.073 - 0.036 - mu) * t)


class TestSimulateMature:
    def test_path_matches_exponential_decline(self):
        traj = simulate(german_transport_scenario(mu=0.05))
        assert len(traj) == 1001
        assert not traj.floor_reached
        for point in traj.points[:: 100]:
            expected = analytic_price(point.t, mu=0.05)
            assert point.price == pytest.approx(expected, rel=1e-6)
        assert traj.points[-1].price == pytest.approx(analytic_price(10.0, 0.05), rel=1e-6)

    def test_initial_point_is_the_cleared_state(self):
        traj = simulate(german_transport_scenario(mu=0.05))
        first = traj.points[0]
        assert first.price == pytest.approx(37_000.0, abs=1e-6)
        assert first.required_share == pytest.approx(0.52, rel=1e-9)
        assert first.marginal_size == pytest.approx(2600.0, rel=1e-9)
        assert first.demand == pytest.approx(7500.0, rel=1e-8)
        assert first.supply == pytest.approx(7500.0, rel=1e-8)
        assert first.price_slope == pytest.approx(-156.0, rel=1e-8)
        assert first.entry_rate == 0.0
        assert first.exit_rate > 0.0

    def test_required_share_instantaneous_gain(self):
        # -slope/(n*delta_c) = 156/25000 = 0.624 pp/year at the start
        traj = simulate(german_transport_scenario(mu=0.05))
        first = traj.points[0]
        gain_pp = -first.price_slope / 25_000.0 * 100.0
        assert gain_pp == pytest.approx(0.624, rel=1e-8)

    def test_affine_share_price_link(self):
        traj = simulate(german_transport_scenario(mu=0.05))
        first = traj.points[0]
        for point in traj:
            lhs = point.required_share - first.required_share
            rhs = (first.price - point.price) / 25_000.0
            assert abs(lhs - rhs) <= 1e-12

    def test_price_non_increasing(self):
        traj = simulate(german_transport_scenario(mu=0.05))
        prices = [p.price for p in traj]
        assert all(a >= b for a, b in zip(prices, prices[1:]))

    def test_profit_frontier_along_path(self):
        traj = simulate(german_transport_scenario(mu=0.05))
        first = traj.points[0]
        assert first.profit_frontier == pytest.approx(156.0 / (0.0002 * 0.05 * 25_000.0), rel=1e-8)
        assert all(p.profit_frontier > 0 for p in traj)

    def test_summary_statistics(self):
        summary = summarize(simulate(german_transport_scenario(mu=0.05)))
        p10 = analytic_price(10.0, 0.05)
        assert summary.final_price == pytest.approx(p10, rel=1e-6)
        expected_drift = 100.0 * (p10 - 37_000.0) / (37_000.0 * 10.0)
        assert summary.price_drift_pct_per_year == pytest.approx(expected_drift, rel=1e-6)
        assert summary.price_drift_pct_per_year == pytest.approx(-0.40, abs=0.01)
        expected_gain = 100.0 * (37_000.0 - p10) / (25_000.0 * 10.0)
        assert summary.share_gain_pp_per_year == pytest.approx(expected_gain, rel=1e-6)
        assert summary.total_exits > 0
        assert summary.total_entries == 0.0

    def test_halving_dt_is_converged(self):
        fine = simulate(german_transport_scenario(mu=0.05, dt=0.005))
        coarse = simulate(german_transport_scenario(mu=0.05, dt=0.01))
        a, b = fine.points[-1].price, coarse.points[-1].price
        assert abs(a - b) / a < 1e-8

    def test_deterministic(self):
        a = simulate(german_transport_scenario(mu=0.05))
        b = simulate(german_transport_scenario(mu=0.05))
        assert a == b


class TestSimulateEmerging:
    def test_boundary_growth_rate_holds_price_flat(self):
        # mu exactly at alpha - psi: emerging tie, flat price, no flows
        traj = simulate(german_transport_scenario(mu=0.073 - 0.036, horizon=5.0, dt=0.1))
        prices = {p.price for p in traj}
        assert len(prices) == 1
        assert prices.pop() == pytest.approx(49_995.0, rel=1e-12)
        assert all(p.exit_rate == 0.0 for p in traj)
        assert all(abs(p.entry_rate) < 1e-6 for p in traj)
        assert all(p.price_slope == 0.0 for p in traj)

    def test_slow_providers_pin_price_with_entry(self):
        traj = simulate(german_transport_scenario(mu=0.02, horizon=5.0, dt=0.1))
        assert all(p.price == pytest.approx(49_995.0, rel=1e-12) for p in traj)
        assert all(p.entry_rate > 0 for p in traj)
        assert all(p.marginal_size == 1.0 for p in traj)
        # entry grows with the (exponentially growing) demand stock
        rates = [p.entry_rate for p in traj]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        summary = summarize(traj)
        assert summary.total_entries > 0
        assert summary.price_drift_pct_per_year == 0.0


class TestFloorHandling:
    def test_literal_mode_stays_above_floor(self):
        traj = simulate(german_transport_scenario(mu=0.05, mode="literal", horizon=2.0, dt=0.001))
        assert all(p.price > 25_000.0 for p in traj)

    def test_crossing_step_stops_and_marks(self):
        # literal-mode slope at the start (~-4e5/yr) reaches the floor stop
        # within 0.32 years, between the fourth and fifth coarse samples
        traj = simulate(german_transport_scenario(mu=0.05, mode="literal", horizon=1.0, dt=0.1))
        assert traj.floor_reached
        assert len(traj) < 11
        assert all(p.price > 25_000.0 for p in traj)

    @pytest.mark.parametrize("mu, dt", [(0.05, 0.01), (0.06, 0.001)])
    def test_floor_rule_ends_literal_path(self, mu, dt):
        # the literal decline runs into the floor within the first year; the
        # sample that comes within FLOOR_TOL * n*delta_c of it ends the path
        # and is not recorded
        config = german_transport_scenario(mu=mu, mode="literal", dt=dt)
        traj = simulate(config)
        assert traj.floor_reached
        assert 1 < len(traj) < 1.0 / dt
        assert traj.price.min() > 25_000.0 + FLOOR_TOL * 25_000.0
        assert np.all(np.diff(traj.price) < 0)
        # up to the stop, the path is the logistic solution of the literal law
        params, gap0 = config.resolved_params(), float(traj.price[0]) - 25_000.0
        expected = [25_000.0 + exact_gap(params, "literal", gap0, t) for t in traj.t.tolist()]
        assert traj.price.tolist() == pytest.approx(expected, rel=1e-12)
        t_stop = stop_time(params, "literal", gap0)
        assert traj.t[-1] <= t_stop < traj.t[-1] + dt

    @pytest.mark.parametrize(
        "dt, rows, drift", [(0.1, 4, -108.11), (0.01, 32, -104.62), (0.001, 318, -102.31)]
    )
    def test_literal_headline_only_samples_the_exact_path(self, dt, rows, drift):
        # dt sets where the path is sampled, so the last row before the stop
        # moves with it, but even the coarsest grid records a decline
        config = german_transport_scenario(mu=0.05, mode="literal", dt=dt)
        traj = simulate(config)
        assert len(traj) == rows and traj.floor_reached
        assert summarize(traj).price_drift_pct_per_year == pytest.approx(drift, abs=5e-3)
        t_stop = stop_time(config.resolved_params(), "literal", float(traj.price[0]) - 25_000.0)
        assert traj.t[-1] <= t_stop < traj.t[-1] + dt

    def test_non_finite_stage_raises_numeric_error(self):
        # mu = 1e308 overflows the initial slope to -inf in both modes
        for mode in ("capacity", "literal"):
            config = german_transport_scenario(mu=1e308, mode=mode, horizon=1.0, dt=0.1)
            with pytest.raises(NumericError, match=r"non-finite price_slope at t=0\.0: -inf"):
                simulate(config)
            rows = sweep(config, "mu", 1e308, 1e308, 1.0)
            assert rows[0].error.startswith("NumericError")

    def test_overflowing_column_raises_numeric_error(self):
        # exp(alpha*t) overflows late in a 30000-year emerging path
        config = german_transport_scenario(mu=0.02, horizon=30_000.0, dt=1.0)
        with pytest.raises(NumericError, match=r"non-finite demand at t=9599\.0: inf"):
            simulate(config)
        rows = sweep(config, "mu", 0.02, 0.02, 1.0)
        assert rows[0].error.startswith("NumericError: non-finite demand")


class TestScenarioConfigValidation:
    def test_bad_mode(self, german_params):
        with pytest.raises(DomainError):
            ScenarioConfig(params=german_params, mode="hybrid")

    def test_bad_horizon(self, german_params):
        with pytest.raises(DomainError):
            ScenarioConfig(params=german_params, horizon=0.0)

    def test_bad_dt(self, german_params):
        with pytest.raises(DomainError):
            ScenarioConfig(params=german_params, horizon=1.0, dt=2.0)

    @pytest.mark.parametrize("dt", [0.3, 0.7])
    def test_horizon_not_a_whole_number_of_steps(self, german_params, dt):
        # round(1/0.3) = 3 steps would end the path at t = 0.9
        with pytest.raises(DomainError):
            ScenarioConfig(params=german_params, horizon=1.0, dt=dt)

    # 0.3/0.1 and 0.7/0.1 divide to 2.9999999999999996 and 6.999999999999999
    @pytest.mark.parametrize(
        "horizon, dt", [(10.0, 0.01), (2.0, 0.001), (5.0, 0.1), (0.3, 0.1), (0.7, 0.1)]
    )
    def test_whole_number_of_steps_up_to_rounding(self, german_params, horizon, dt):
        config = ScenarioConfig(params=german_params, horizon=horizon, dt=dt)
        assert simulate(config).t[-1] == pytest.approx(horizon, rel=1e-12)


class TestSweep:
    def test_drift_monotone_in_provider_growth(self):
        base = german_transport_scenario(mu=0.05)
        rows = sweep(base, "mu", 0.04, 0.07, 0.005)
        assert len(rows) == 7
        assert [r.error for r in rows] == [None] * 7
        drifts = [r.price_drift_pct_per_year for r in rows]
        assert all(a > b for a, b in zip(drifts, drifts[1:]))
        # spot value at mu = 0.05 matches the plain simulate summary
        spot = next(r for r in rows if abs(r.value - 0.05) < 1e-12)
        direct = summarize(simulate(base))
        assert spot.price_drift_pct_per_year == direct.price_drift_pct_per_year

    def test_degenerate_single_point_equals_simulate(self):
        base = german_transport_scenario(mu=0.05)
        rows = sweep(base, "mu", 0.05, 0.05, 0.01)
        assert len(rows) == 1
        assert rows[0].final_price == summarize(simulate(base)).final_price

    def test_beta_sweep_reanchors(self):
        # at fixed anchors the initial required share is beta-invariant while
        # the marginal size scales as 1/beta
        base = german_transport_scenario(mu=0.05, horizon=1.0, dt=0.1)
        first_lo = simulate(replace(base, params=base.params.replace(beta=0.0002))).points[0]
        first_hi = simulate(replace(base, params=base.params.replace(beta=0.0004))).points[0]
        assert first_lo.required_share == pytest.approx(first_hi.required_share, rel=1e-9)
        assert first_lo.marginal_size == pytest.approx(2 * first_hi.marginal_size, rel=1e-9)

    def test_invalid_points_recorded_not_raised(self):
        base = german_transport_scenario(mu=0.05, horizon=1.0, dt=0.1)
        rows = sweep(base, "alpha", 0.02, 0.08, 0.01)  # values below psi are invalid
        errors = [r for r in rows if r.error is not None]
        ok = [r for r in rows if r.error is None]
        assert errors and ok
        assert all(r.value <= 0.036 for r in errors)

    def test_programming_errors_propagate(self, monkeypatch):
        # alpha = 0.03 < psi is invalid input and becomes an error row; a
        # TypeError inside a point is a bug and leaves the sweep
        base = german_transport_scenario(mu=0.05, horizon=1.0, dt=0.1)
        rows = sweep(base, "alpha", 0.03, 0.04, 0.01)
        assert rows[0].error.startswith("DomainError")
        assert rows[1].error is None

        def broken(config):
            raise TypeError("bug inside a point")

        monkeypatch.setattr(dynamics, "simulate", broken)
        with pytest.raises(TypeError, match="bug inside a point"):
            sweep(base, "alpha", 0.03, 0.04, 0.01)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(DomainError):
            sweep(german_transport_scenario(), "gamma", 0.0, 1.0, 0.1)

    def test_grid_construction(self):
        assert sweep_values(0.045, 0.06, 0.0025) == pytest.approx(
            [0.045, 0.0475, 0.05, 0.0525, 0.055, 0.0575, 0.06]
        )
        with pytest.raises(DomainError):
            sweep_values(1.0, 0.0, 0.1)
