"""Quadrature, Brent root finding, and RK4 kernels against analytic oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from consultmarket import (
    AnchorConditions,
    Bracket,
    DemandSide,
    DensityGrid,
    DomainError,
    ModelParams,
    SupplySide,
    anchored_params,
    find_root,
    integrate_tail,
    solve_equilibrium,
    step_path,
)
from consultmarket.errors import NoBracketError, NumericError
from consultmarket.numerics import MAX_EXTRA_EVALS, rk4_step, tail_integrals
from consultmarket.scenarios import german_transport_params


def make_zipf_grid(g0=3.125, lo=1.0, hi=5000.0, points=64) -> DensityGrid:
    return DensityGrid.log_spaced(lo, hi, lambda e: g0 / e, points=points)


def trapezoid_tail(grid: DensityGrid, from_: float, weight: str = "none") -> float:
    """The slice-trapezoid oracle: ``np.trapezoid`` over the tail from the
    cell holding ``from_``, minus the sliver of that cell left of ``from_``."""
    integrand = grid.values if weight == "none" else grid.axis * grid.values
    if from_ == grid.upper_bound:
        return 0.0
    i = int(np.searchsorted(grid.axis, from_, side="right"))
    tail = float(np.trapezoid(integrand[i - 1 :], grid.axis[i - 1 :]))
    x0, x1, y0, y1 = grid.axis[i - 1], grid.axis[i], integrand[i - 1], integrand[i]
    y_from = y0 + (y1 - y0) * (from_ - x0) / (x1 - x0)
    return tail - 0.5 * (y0 + y_from) * (from_ - x0)


@st.composite
def random_grids(draw) -> DensityGrid:
    """Grids of 16 to 600 points with uneven spacing, zero runs and spikes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = draw(st.integers(16, 600))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    axis = draw(st.floats(-1e3, 1e3)) + scale * np.cumsum(rng.uniform(0.01, 1.0, points) ** 3)
    values = rng.exponential(size=points) * (rng.random(points) > draw(st.sampled_from([0.0, 0.3])))
    return DensityGrid(axis=axis, values=values * draw(st.sampled_from([1e-6, 1.0, 1e6])))


class TestDensityGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            DensityGrid(axis=np.arange(8.0), values=np.ones(8))  # too few points
        with pytest.raises(DomainError):
            DensityGrid(axis=np.ones(20), values=np.ones(20))  # not increasing
        with pytest.raises(DomainError):
            DensityGrid(axis=np.arange(20.0), values=-np.ones(20))  # negative density

    def test_immutable_after_construction(self):
        grid = make_zipf_grid()
        with pytest.raises(ValueError):
            grid.values[0] = 1.0

    def test_bounds_derive_from_axis(self):
        grid = make_zipf_grid(lo=2.0, hi=100.0)
        assert grid.lower_bound == 2.0
        assert grid.upper_bound == 100.0


class TestIntegrateTail:
    def test_constant_density_rectangle(self):
        grid = DensityGrid(axis=np.linspace(0.0, 10.0, 21), values=np.ones(21))
        assert integrate_tail(grid, 4.0) == pytest.approx(6.0, rel=1e-12)

    def test_zipf_weighted_tail_is_analytic(self):
        # integrand e * (g0/e) is constant, so the trapezoid rule is exact:
        # 3.125 * (5000 - 2600) = 7500
        grid = make_zipf_grid()
        got = integrate_tail(grid, 2600.0, weight="identity")
        assert got == pytest.approx(7500.0, rel=1e-12)

    def test_empty_tail(self):
        grid = make_zipf_grid()
        assert integrate_tail(grid, grid.upper_bound) == 0.0

    def test_outside_domain_rejected(self):
        grid = make_zipf_grid()
        for start in (0.5, 5001.0):
            with pytest.raises(DomainError):
                integrate_tail(grid, start)

    def test_bad_weight_rejected(self):
        with pytest.raises(DomainError):
            integrate_tail(make_zipf_grid(), 10.0, weight="square")

    @given(a=st.floats(min_value=1.0, max_value=5000.0), b=st.floats(min_value=1.0, max_value=5000.0))
    def test_monotone_in_tail_direction(self, a, b):
        grid = make_zipf_grid()
        lo, hi = sorted((a, b))
        assert integrate_tail(grid, lo) >= integrate_tail(grid, hi) - 1e-12

    @pytest.mark.parametrize("weight", ["none", "identity"])
    def test_cut_cell_returns_a_python_float(self, weight):
        grid = make_zipf_grid()
        assert 17.3 not in grid.axis
        assert type(integrate_tail(grid, 17.3, weight=weight)) is float

    @given(grid=random_grids(), cuts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_table_matches_slice_trapezoid(self, grid, cuts):
        lo, hi = grid.lower_bound, grid.upper_bound
        starts = [lo, hi, *grid.axis[[1, -2]], *(min(lo + u * (hi - lo), hi) for u in cuts)]
        for weight in ("none", "identity"):
            tail = tail_integrals(grid, weight)
            integrand = grid.values if weight == "none" else grid.axis * grid.values
            total = float(np.trapezoid(np.abs(integrand), grid.axis))  # the integrand may be negative
            for x in starts:
                got = tail(x)
                assert type(got) is float
                assert abs(got - trapezoid_tail(grid, x, weight)) <= 1e-12 * total
                assert integrate_tail(grid, x, weight) == got

    def test_table_checks_every_start(self):
        tail = tail_integrals(make_zipf_grid())
        for start in (0.5, 5001.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="outside grid domain"):
                tail(start)
        with pytest.raises(DomainError, match="weight"):
            tail_integrals(make_zipf_grid(), "square")

    def test_additive_over_adjacent_intervals(self):
        grid = make_zipf_grid()
        a, b = 17.3, 431.9
        whole = integrate_tail(grid, a)
        piece = integrate_tail(grid, a) - integrate_tail(grid, b)
        assert whole == pytest.approx(piece + integrate_tail(grid, b), rel=1e-14)
        assert piece >= 0


class TestFindRoot:
    def test_linear(self):
        bracket = Bracket.from_fn(lambda p: p - 3.0, 0.0, 10.0)
        assert find_root(lambda p: p - 3.0, bracket, 1e-9) == pytest.approx(3.0, abs=1e-9)

    def test_cubic_vs_analytic_root(self):
        f = lambda p: p**3 - 8.0
        root = find_root(f, Bracket.from_fn(f, 0.0, 10.0), 1e-9)
        assert root == pytest.approx(8.0 ** (1.0 / 3.0), abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(NoBracketError) as err:
            Bracket.from_fn(lambda p: p + 1.0, 0.0, 10.0)
        assert err.value.f_lo == 1.0
        assert err.value.f_hi == 11.0

    def test_invalid_bracket_rejected(self):
        with pytest.raises(DomainError):
            Bracket(lo=1.0, hi=0.0, f_lo=-1.0, f_hi=1.0)
        with pytest.raises(DomainError):
            Bracket(lo=0.0, hi=1.0, f_lo=1.0, f_hi=2.0)

    def test_bit_identical_reruns(self):
        f = lambda p: math.expm1(p) - 5.0
        bracket = Bracket.from_fn(f, 0.0, 10.0)
        assert find_root(f, bracket) == find_root(f, bracket)


def counted(fn):
    """``fn`` plus the list of points it has been evaluated at."""
    calls = []

    def wrapper(x):
        calls.append(x)
        return fn(x)

    return wrapper, calls


def reference_bisection(residual, lo, hi, tol):
    """Plain bisection until the sign-change bracket is at most ``tol`` wide."""
    f_lo = residual(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def bisection_evals(lo, hi, tol):
    count = 0
    while hi - lo > tol:
        hi = 0.5 * (lo + hi)
        count += 1
    return count


def assert_near_sign_change(residual, x, bracket, tol):
    """The residual changes sign (or is 0) within tol/2 of ``x``."""
    left, right = max(x - 0.5 * tol, bracket.lo), min(x + 0.5 * tol, bracket.hi)
    assert residual(left) * residual(right) <= 0


@st.composite
def anchored_markets(draw) -> ModelParams:
    """Valid parameters anchored at a price between the floor and the entry price."""
    n = draw(st.floats(min_value=1.0, max_value=10.0))
    c = draw(st.floats(min_value=1e3, max_value=1e6))
    psi = draw(st.floats(min_value=0.005, max_value=0.1))
    provisional = ModelParams(
        v=draw(st.floats(min_value=1e-3, max_value=0.2)),
        n=n,
        c=c,
        delta_c=c * draw(st.floats(min_value=0.05, max_value=1.0)),
        beta=draw(st.floats(min_value=1e-5, max_value=0.9)) / n,
        psi=psi,
        mu=draw(st.floats(min_value=0.0, max_value=0.4)),
        alpha=psi + draw(st.floats(min_value=0.002, max_value=0.1)),
        r_m=draw(st.floats(min_value=1e4, max_value=1e8)),
        f0=1.0,
        g0=1.0,
    )
    frac = draw(st.floats(min_value=0.05, max_value=0.95))
    price0 = provisional.cost_floor + frac * (provisional.entry_price - provisional.cost_floor)
    served0 = draw(st.floats(min_value=10.0, max_value=1e5))
    return anchored_params(provisional, AnchorConditions(served0=served0, price0=price0))


@st.composite
def calibrated_markets(draw) -> ModelParams:
    """The German scenario with its rates and anchors jittered and mu on either side of the tie."""
    provisional = german_transport_params().replace(
        psi=0.036 * draw(st.floats(min_value=0.9, max_value=1.1)),
        alpha=0.073 * draw(st.floats(min_value=0.9, max_value=1.1)),
        mu=draw(st.floats(min_value=0.01, max_value=0.09)),
    )
    anchors = AnchorConditions(
        served0=draw(st.floats(min_value=5e3, max_value=1e4)),
        price0=draw(st.floats(min_value=35e3, max_value=39e3)),
    )
    return anchored_params(provisional, anchors)


def recorded_solve(params, t, grid):
    """Clear the market through a find_root that records its call.

    Returns (residual, bracket, tol, evaluation points, root), or None when
    the solve raised before or instead of calling find_root.
    """
    if grid:
        demand, supply = DemandSide.with_grid(params), SupplySide.with_grid(params)
    else:
        demand, supply = DemandSide.closed_form(params), SupplySide.closed_form(params)
    solves = []

    def recording_find_root(residual, bracket, tol_abs):
        wrapped, calls = counted(residual)
        root = find_root(wrapped, bracket, tol_abs)
        solves.append((residual, bracket, tol_abs, calls, root))
        return root

    with mock.patch("consultmarket.equilibrium.find_root", recording_find_root):
        try:
            solve_equilibrium(demand, supply, t)
        except NumericError:
            pass  # no crossing above the floor at this t
    return solves[0] if solves else None


def assert_bisection_contract(solve):
    """Within tol/2 of a sign change, within tol of plain bisection, and
    never more than MAX_EXTRA_EVALS evaluations beyond it."""
    residual, bracket, tol, calls, root = solve
    assert bracket.lo <= root <= bracket.hi
    assert_near_sign_change(residual, root, bracket, tol)
    assert root == pytest.approx(reference_bisection(residual, bracket.lo, bracket.hi, tol), abs=tol)
    assert len(calls) <= bisection_evals(bracket.lo, bracket.hi, tol) + MAX_EXTRA_EVALS


class TestBrent:
    """find_root against plain bisection: same contract, far fewer evaluations."""

    @given(params=anchored_markets(), t=st.floats(min_value=0.0, max_value=20.0), grid=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_clearing_solves_keep_the_bisection_contract(self, params, t, grid):
        solve = recorded_solve(params, t, grid)
        assume(solve is not None)
        assert_bisection_contract(solve)

    @given(params=calibrated_markets(), t=st.floats(min_value=0.0, max_value=10.0), grid=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_calibrated_solves_take_few_evaluations(self, params, t, grid):
        # plain bisection needs 33 to 35 evaluations on these brackets
        solve = recorded_solve(params, t, grid)
        assume(solve is not None)
        assert_bisection_contract(solve)
        if not grid:
            assert len(solve[3]) <= 10

    @pytest.mark.parametrize("lo, hi", [(3.0, 10.0), (0.0, 3.0)])
    def test_exact_zero_at_bracket_end(self, lo, hi):
        wrapped, calls = counted(lambda p: p - 3.0)
        assert find_root(wrapped, Bracket.from_fn(wrapped, lo, hi), 1e-9) == 3.0
        assert len(calls) == 2  # the two ends, evaluated by Bracket.from_fn

    def test_exact_zero_at_an_iterate(self):
        # the first secant step lands on the root exactly
        wrapped, calls = counted(lambda p: 2.0 * p - 6.0)
        bracket = Bracket.from_fn(lambda p: 2.0 * p - 6.0, 0.0, 10.0)
        assert find_root(wrapped, bracket, 1e-9) == 3.0
        assert len(calls) == 1

    @given(
        jump=st.floats(min_value=0.01, max_value=9.99),
        below=st.sampled_from([-1e-3, -1.0, -3.0, -1e6]),
        above=st.sampled_from([1e-3, 1.0, 3.0, 1e6]),
        slope=st.sampled_from([0.0, 1.0, 1e3]),
        tol=st.sampled_from([1e-3, 1e-6, 1e-9]),
    )
    @settings(max_examples=300, deadline=None)
    def test_discontinuous_step_residual(self, jump, below, above, slope, tol):
        # a step at ``jump`` on top of a cubic; interpolation keeps proposing
        # points on the shallow side, and the forced bisections bound the cost
        def residual(p):
            return slope * (p - jump) ** 3 + (above if p > jump else below)

        bracket = Bracket.from_fn(residual, 0.0, 10.0)
        wrapped, calls = counted(residual)
        root = find_root(wrapped, bracket, tol)
        assert abs(root - jump) <= 0.5 * tol
        assert len(calls) <= bisection_evals(0.0, 10.0, tol) + MAX_EXTRA_EVALS

    def test_saturating_supply_kink(self, german_params):
        # closed-form supply is affine up to the entry price and flat above
        # it; demand outgrows supply, so the crossing reaches the kink at
        # t_kink and sits in the flat part just after
        p = german_params
        demand, supply = DemandSide.closed_form(p), SupplySide.closed_form(p)
        t_kink = math.log(supply.at(0.0, p.entry_price) / demand.at(0.0, p.entry_price)) / (p.alpha - p.mu)
        for t in (t_kink - 0.01, t_kink, t_kink + 1e-3):

            def residual(x):
                return demand.at(t, x) - supply.at(t, x)

            bracket = Bracket.from_fn(residual, p.cost_floor, p.full_local_cost)
            wrapped, calls = counted(residual)
            root = find_root(wrapped, bracket, 1e-6)
            assert_near_sign_change(residual, root, bracket, 1e-6)
            assert root == pytest.approx(reference_bisection(residual, bracket.lo, bracket.hi, 1e-6), abs=1e-6)
            assert len(calls) <= 10
        # past the kink D(t, p) equals the saturated supply: invert the power law
        saturated = supply.at(t, p.full_local_cost)
        scale = demand.at(t, p.v * p.r_m)  # D at the tail's start, r_cut = r_m
        analytic = p.v * p.r_m * (saturated / scale) ** (1.0 / (1.0 - p.alpha / p.psi))
        assert p.entry_price < analytic < p.full_local_cost
        assert root == pytest.approx(analytic, abs=1e-6)

    @given(
        mu=st.floats(0.01, 0.1),
        t=st.floats(0.0, 5.0),
        points=st.sampled_from([64, 512]),
    )
    @settings(max_examples=20, deadline=None)
    def test_grid_solve_matches_slice_trapezoid_route(self, mu, t, points):
        params = german_transport_params(mu)
        demand, supply = DemandSide.with_grid(params, points=points), SupplySide.with_grid(params, points=points)
        fast = solve_equilibrium(demand, supply, t)
        # the same solve with every tail integrated afresh by the oracle
        oracle_tails = lambda grid, weight: lambda x: trapezoid_tail(grid, x, weight)  # noqa: E731
        with mock.patch("consultmarket.curves.tail_integrals", oracle_tails):
            slow = solve_equilibrium(demand, supply, t)
        assert fast.price == pytest.approx(slow.price, rel=1e-9)
        assert fast.served == pytest.approx(slow.served, rel=1e-9)

    def test_grid_solve_bit_identical_reruns(self, german_params):
        demand, supply = DemandSide.with_grid(german_params), SupplySide.with_grid(german_params)
        first = solve_equilibrium(demand, supply, 3.0).price
        assert solve_equilibrium(demand, supply, 3.0).price == first


class TestStepPath:
    def test_constant_path_under_zero_slope(self):
        path = step_path(lambda t, y: 0.0, 0.0, 37_000.0, 0.1, 10)
        assert path.shape == (11, 2)
        assert np.all(path[:, 1] == 37_000.0)

    def test_linear_ode_matches_exponential(self):
        # dy/dt = -k (y - 25000), y0 = 37000, k = 0.013
        k = 0.013
        path = step_path(lambda t, y: -k * (y - 25_000.0), 0.0, 37_000.0, 0.01, 1000)
        expected = 25_000.0 + 12_000.0 * math.exp(-0.13)
        assert path[-1, 0] == pytest.approx(10.0, abs=1e-12)
        assert path[-1, 1] == pytest.approx(expected, rel=1e-6)

    def test_unit_slope(self):
        path = step_path(lambda t, y: 1.0, 0.0, 5.0, 0.5, 4)
        assert path[-1, 1] == pytest.approx(7.0, rel=1e-14)

    def test_fourth_order_convergence(self):
        k = 0.013
        fine = step_path(lambda t, y: -k * (y - 25_000.0), 0.0, 37_000.0, 0.005, 2000)
        coarse = step_path(lambda t, y: -k * (y - 25_000.0), 0.0, 37_000.0, 0.01, 1000)
        assert abs(fine[-1, 1] - coarse[-1, 1]) / fine[-1, 1] < 1e-8

    def test_non_finite_slope_aborts_with_location(self):
        def slope(t, y):
            return float("inf") if t > 0.5 else 1.0

        with pytest.raises(NumericError):
            step_path(slope, 0.0, 1.0, 0.2, 10)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            step_path(lambda t, y: 0.0, 0.0, 1.0, -0.1, 5)
        with pytest.raises(DomainError):
            step_path(lambda t, y: 0.0, 0.0, 1.0, 0.1, 0)

    def test_single_step_kernel_matches_path(self):
        k = 0.013
        slope = lambda t, y: -k * (y - 25_000.0)
        assert rk4_step(slope, 0.0, 37_000.0, 0.01) == step_path(slope, 0.0, 37_000.0, 0.01, 1)[-1, 1]
