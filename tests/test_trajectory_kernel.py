"""The closed-form simulate kernel against the scalar functions it replaces.

The reduced decline law, written out here, is checked against
``price_slope`` and the flux/stock oracle; simulated prices against the
exact solution of that law, also written out here, and that solution
against RK4 (``step_path``) of the law; every recorded column is checked
against the curve sides and the cost algebra on random valid parameter
sets, the path against its invariants, and the columnar ``Trajectory``
against its contract.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from consultmarket import (
    AnchorConditions,
    DemandSide,
    ScenarioConfig,
    SupplySide,
    Trajectory,
    TrajectoryPoint,
    anchored_params,
    entry_rate,
    exit_rate,
    min_viable_size,
    price_slope,
    profitability_threshold_size,
    required_offshore_share,
    simulate,
    step_path,
)
from consultmarket.dynamics import COLUMNS, FLOOR_TOL
from consultmarket.model import ModelParams, decline_gap
from consultmarket.scenarios import german_transport_scenario
from test_equilibrium import flux_stock_slope

MODES = st.sampled_from(("capacity", "literal"))


def reduced_law(params: ModelParams, mode: str):
    """The reduced decline law of the ``dynamics`` module docstring, written out."""
    p = params
    rate = p.alpha - p.psi - p.mu
    cap = p.n * p.delta_c * (1.0 - p.beta * p.n)
    if mode == "capacity":
        return lambda t, price: rate * min(price - p.cost_floor, cap)
    return lambda t, price: (
        rate
        * min(price - p.cost_floor, cap)
        * (max((p.n * p.c - price) / (p.n * p.beta * p.delta_c), p.n) / p.n)
    )


@st.composite
def market_params(draw) -> ModelParams:
    """Valid parameters away from the regime tie, where the classifier and
    the flow balance cancel to rounding noise."""
    n = draw(st.floats(min_value=1.0, max_value=10.0))
    c = draw(st.floats(min_value=1e3, max_value=1e6))
    psi = draw(st.floats(min_value=0.005, max_value=0.1))
    spread = draw(st.floats(min_value=0.002, max_value=0.1))
    mu_ratio = draw(st.floats(min_value=0.0, max_value=4.0))
    assume(abs(mu_ratio - 1.0) > 1e-3)
    return ModelParams(
        v=draw(st.floats(min_value=1e-3, max_value=0.2)),
        n=n,
        c=c,
        delta_c=c * draw(st.floats(min_value=0.05, max_value=1.0)),
        beta=draw(st.floats(min_value=1e-5, max_value=0.9)) / n,
        psi=psi,
        mu=spread * mu_ratio,
        alpha=psi + spread,
        r_m=draw(st.floats(min_value=1e4, max_value=1e8)),
        f0=draw(st.floats(min_value=1e-3, max_value=1e3)),
        g0=draw(st.floats(min_value=1e-3, max_value=1e3)),
    )


@given(
    params=market_params(),
    mode=MODES,
    t=st.floats(min_value=0.0, max_value=20.0),
    frac=st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_reduced_slope_equals_price_slope(params, mode, t, frac):
    # both sides cancel P - floor in their own rounding order; a gap of at
    # least 1e-3 * n*delta_c keeps that cancellation below 1e-11 relative
    price = params.cost_floor + frac * params.n * params.delta_c
    assume(params.cost_floor < price <= params.full_local_cost)
    demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
    reduced = reduced_law(params, mode)(t, price)
    assert reduced == pytest.approx(price_slope(demand, supply, t, price, mode), rel=1e-10)
    assert reduced == pytest.approx(flux_stock_slope(demand, supply, t, price, mode), rel=1e-10)


@st.composite
def anchored_scenarios(draw) -> ScenarioConfig:
    """Anchored at a price between the floor and the entry price, so the
    t = 0 market clears at the anchor."""
    provisional = draw(market_params())
    frac = draw(st.floats(min_value=0.05, max_value=0.95))
    price0 = provisional.cost_floor + frac * (provisional.entry_price - provisional.cost_floor)
    anchors = AnchorConditions(served0=draw(st.floats(min_value=10.0, max_value=1e5)), price0=price0)
    return ScenarioConfig(
        params=anchored_params(provisional, anchors), mode=draw(MODES), horizon=2.0, dt=0.05
    )


@given(config=anchored_scenarios())
@settings(max_examples=150, deadline=None)
def test_columns_equal_their_scalar_functions(config):
    params = config.params
    demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
    traj = simulate(config)
    emerging = traj.price_slope[0] == 0.0
    for point in traj.points[::7]:
        t, price = point.t, point.price
        assert point.demand == pytest.approx(demand.at(t, price), rel=1e-12)
        assert point.supply == pytest.approx(supply.at(t, price), rel=1e-12)
        assert point.marginal_size == pytest.approx(min_viable_size(price, params), rel=1e-12)
        assert point.required_share == pytest.approx(required_offshore_share(price, params), rel=1e-12)
        if emerging:
            # a difference of two flows: compare on the scale of its terms
            scale = abs(point.entry_rate) + params.mu * point.demand
            assert point.entry_rate == pytest.approx(entry_rate(demand, supply, t), abs=1e-12 * scale)
            assert (point.price_slope, point.exit_rate, point.profit_frontier) == (0.0, 0.0, 0.0)
        else:
            if price - params.cost_floor >= 1e-3 * params.n * params.delta_c:
                # nearer the floor price_slope itself loses digits to the
                # cancellation in 1 + (P - n*c)/(n*delta_c)
                slope = price_slope(demand, supply, t, price, config.mode)
                assert point.price_slope == pytest.approx(slope, rel=1e-10)
            assert point.exit_rate == pytest.approx(
                exit_rate(supply, t, price, point.price_slope), rel=1e-12
            )
            assert point.profit_frontier == pytest.approx(
                profitability_threshold_size(point.price_slope, params), rel=1e-12
            )
            assert point.entry_rate == 0.0


def exact_gap(params: ModelParams, mode: str, gap0: float, t: float) -> float:
    """P(t) - floor on the exact solution of ``reduced_law`` from P(0) - floor = gap0:
    linear while the gap is at least the cap, then exponential (capacity) or
    logistic (literal) from where it meets the cap."""
    p = params
    rate = p.alpha - p.psi - p.mu
    k = p.n * p.delta_c
    cap = k * (1.0 - p.beta * p.n)
    if gap0 > cap:
        t_cap = (cap - gap0) / (rate * cap)
        if t < t_cap:
            return gap0 + rate * cap * t
        gap0, t = cap, t - t_cap
    if mode == "capacity":
        return gap0 * math.exp(rate * t)
    e = math.exp(rate / (p.n * p.beta) * t)
    return k * gap0 * e / (k - gap0 + gap0 * e)


def stop_time(params: ModelParams, mode: str, gap0: float) -> float:
    """When the exact path from gap0 <= cap comes within FLOOR_TOL * n*delta_c of the floor."""
    p = params
    rate = p.alpha - p.psi - p.mu
    k = p.n * p.delta_c
    stop = FLOOR_TOL * k
    if mode == "capacity":
        return math.log(stop / gap0) / rate
    return math.log(stop * (k - gap0) / (gap0 * (k - stop))) / (rate / (p.n * p.beta))


def assert_path_is_exact_solution(config: ScenarioConfig):
    traj = simulate(config)
    params = config.resolved_params()
    floor, price0 = params.cost_floor, float(traj.price[0])
    expected = [floor + exact_gap(params, config.mode, price0 - floor, t) for t in traj.t.tolist()]
    assert traj.price.tolist() == pytest.approx(expected, rel=1e-12)
    return traj


def max_rk4_error(config: ScenarioConfig) -> float:
    """Largest distance of RK4 of the reduced law, at the scenario's dt, from the exact path."""
    traj = assert_path_is_exact_solution(config)
    law = reduced_law(config.resolved_params(), config.mode)
    rk4 = step_path(law, 0.0, float(traj.price[0]), config.dt, len(traj) - 1)[:, 1]
    return float(np.max(np.abs(rk4 - traj.price)))


def test_german_path_is_exact_solution_of_reduced_law_capacity():
    # the capacity path runs the whole horizon; RK4 of an exponential is
    # exact to rounding
    config = german_transport_scenario(mu=0.05, mode="capacity")
    traj = assert_path_is_exact_solution(config)
    assert len(traj) == 1001 and not traj.floor_reached
    assert max_rk4_error(config) <= 1e-12 * float(traj.price.min())


def test_german_path_is_exact_solution_of_reduced_law_literal():
    # the literal path stops at the floor after 32 rows; before that, RK4
    # converges to it at fourth order: halving dt cuts its error 16-fold
    traj = assert_path_is_exact_solution(german_transport_scenario(mu=0.05, mode="literal"))
    assert len(traj) == 32 and traj.floor_reached
    coarse = max_rk4_error(german_transport_scenario(mu=0.05, mode="literal", horizon=0.2, dt=0.002))
    fine = max_rk4_error(german_transport_scenario(mu=0.05, mode="literal", horizon=0.2, dt=0.001))
    assert 14.0 <= coarse / fine <= 19.0


@given(config=anchored_scenarios())
@settings(max_examples=150, deadline=None)
def test_mature_path_is_exact_solution_of_reduced_law(config):
    params = config.resolved_params()
    assume(params.mu > params.alpha - params.psi)
    assert_path_is_exact_solution(config)


@given(config=anchored_scenarios())
@settings(max_examples=100, deadline=None)
def test_path_invariants(config):
    params = config.resolved_params()
    traj = simulate(config)
    floor, k = params.cost_floor, params.n * params.delta_c
    assert np.all(np.diff(traj.price) <= 0.0)
    assert np.all(traj.price > floor + FLOOR_TOL * k)
    assert np.all((traj.required_share >= 0.0) & (traj.required_share <= 1.0))
    assert np.all(traj.exit_rate >= 0.0)
    if params.mu <= params.alpha - params.psi:  # emerging
        assert np.all(traj.entry_rate >= 0.0)
        assert not traj.floor_reached
    else:
        # anchors sit below the entry price, so the path starts below the cap
        t_stop = stop_time(params, config.mode, float(traj.price[0]) - floor)
        assume(abs(t_stop - config.horizon) > 1e-6 * config.horizon)
        assert traj.floor_reached == (t_stop <= config.horizon)


@pytest.mark.parametrize("mode", ["capacity", "literal"])
def test_exact_gap_from_above_the_cap(mode):
    # beta*n = 1/2 puts the cap at half of K = n*delta_c = 1000; from a gap
    # of 900 the price falls linearly to the cap and then bends
    params = ModelParams(
        v=0.02, n=2.0, c=1000.0, delta_c=500.0, beta=0.25, psi=0.03, mu=0.5, alpha=0.05,
        r_m=1e5, f0=1.0, g0=1.0,
    )
    literal = mode == "literal"
    rate, cap, gap0 = -0.48, 500.0, 900.0
    t_cap = (cap - gap0) / (rate * cap)
    t = np.linspace(0.0, 4.0, 4001)
    gap = decline_gap(params, gap0, t, literal)
    # on floats math.exp, on arrays numpy's exp: they may differ in the last bit
    floats = [decline_gap(params, gap0, x, literal) for x in t.tolist()]
    assert gap.tolist() == pytest.approx(floats, rel=1e-15)
    assert gap.tolist() == pytest.approx([exact_gap(params, mode, gap0, x) for x in t.tolist()], rel=1e-12)
    linear = t < t_cap
    assert gap[linear].tolist() == pytest.approx((gap0 + rate * cap * t[linear]).tolist(), rel=1e-15)
    assert np.all(gap[~linear] <= cap) and np.all(np.diff(gap) < 0.0)
    # continuous where the path meets the cap
    for side in (math.nextafter(t_cap, 0.0), t_cap, math.nextafter(t_cap, 1.0)):
        assert decline_gap(params, gap0, side, literal) == pytest.approx(cap, rel=1e-14)
    # and RK4 of the law, in price, lands on it
    floor = params.cost_floor
    rk4 = step_path(reduced_law(params, mode), 0.0, floor + gap0, 0.001, 4000)
    assert rk4[:, 1].tolist() == pytest.approx((floor + gap).tolist(), rel=1e-11)
    # at beta*n = 1 the cap is 0, so the slope is 0 and the path stays put
    flat = params.replace(beta=0.5)
    assert decline_gap(flat, gap0, t, literal).tolist() == [gap0] * len(t)
    assert decline_gap(flat, gap0, 2.0, literal) == gap0


class TestTrajectory:
    def test_equality_and_length(self):
        a = simulate(german_transport_scenario(mu=0.05, horizon=1.0, dt=0.1))
        b = simulate(german_transport_scenario(mu=0.05, horizon=1.0, dt=0.1))
        assert a == b
        assert len(a) == 11
        assert a != simulate(german_transport_scenario(mu=0.06, horizon=1.0, dt=0.1))
        assert a != simulate(german_transport_scenario(mu=0.05, mode="literal", horizon=1.0, dt=0.1))
        assert a != "not a trajectory"

    def test_iteration_yields_points_of_python_floats(self):
        traj = simulate(german_transport_scenario(mu=0.05, horizon=1.0, dt=0.1))
        points = list(traj)
        assert len(points) == len(traj)
        assert all(type(p) is TrajectoryPoint for p in points)
        assert all(type(getattr(p, name)) is float for p in points for name in COLUMNS)
        assert [p.price for p in points] == traj.price.tolist()
        assert traj.points == tuple(points)
        assert traj.points is not traj.points  # built on demand, never cached

    def test_columns_are_read_only_float64(self):
        traj = simulate(german_transport_scenario(mu=0.05, horizon=1.0, dt=0.1))
        for name in COLUMNS:
            column = getattr(traj, name)
            assert column.dtype == float and not column.flags.writeable
        with pytest.raises(ValueError):
            traj.price[0] = 0.0

    def test_construction_copies_and_checks_lengths(self):
        columns = {name: [1.0, 2.0] for name in COLUMNS}
        traj = Trajectory(**columns, floor_reached=False, mode="capacity")
        columns["price"][0] = 5.0
        assert traj.price.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            Trajectory(**{**columns, "demand": [1.0]}, floor_reached=False, mode="capacity")
