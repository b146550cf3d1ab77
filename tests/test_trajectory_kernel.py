"""The closed-form simulate kernel against the scalar functions it replaces.

The reduced decline law, written out here, is checked against
``price_slope`` and the flux/stock oracle, and simulated prices against ``step_path`` of that law bit
for bit; every recorded column is checked against the curve sides and the
cost algebra on random valid parameter sets, and the columnar
``Trajectory`` against its contract.
"""

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
from consultmarket.dynamics import COLUMNS
from consultmarket.model import ModelParams
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


def assert_path_is_step_path_of_reduced_law(config: ScenarioConfig) -> None:
    traj = simulate(config)
    law = reduced_law(config.resolved_params(), config.mode)
    reference = step_path(law, 0.0, float(traj.price[0]), config.dt, len(traj) - 1)
    assert traj.price.tolist() == reference[:, 1].tolist()


@pytest.mark.parametrize("mode", ["capacity", "literal"])
def test_german_path_is_step_path_of_reduced_law(mode):
    # the literal path stops at the floor after 32 rows, the capacity path
    # runs the whole horizon
    assert_path_is_step_path_of_reduced_law(german_transport_scenario(mu=0.05, mode=mode))


@given(config=anchored_scenarios())
@settings(max_examples=150, deadline=None)
def test_mature_path_is_step_path_of_reduced_law(config):
    params = config.resolved_params()
    assume(params.mu > params.alpha - params.psi)
    assume(len(simulate(config)) > 1)
    assert_path_is_step_path_of_reduced_law(config)


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
