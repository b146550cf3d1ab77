"""Output checks.  Each returns a list of failure messages; empty means correct.

Tolerances are the package's own: 1e-6 relative for the mature
trajectory against its closed form and for the transport oracle, the
1e-6 price tolerance of the solver, and exact equality for pinned
emerging prices and for CSV text.  Grid-backed clearing prices differ from
the closed form by the truncation and quadrature error of the grid,
bounded per grid size in ``GRID_PRICE_TOL``.
"""

from __future__ import annotations

import math

TRAJECTORY_REL_TOL = 1e-6
PRICE_TOL = 1e-6  # absolute, the solver's DEFAULT_PRICE_TOL
TRANSPORT_REL_TOL = 1e-6
CALIBRATION_REL_TOL = 1e-6  # the config stores rates with 9 significant digits
# relative distance of the grid-backed clearing price from the closed form.
# The 512-point grid stops the demand axis at 1e3 * r_m and so drops a
# share 1e3 ** (1 - alpha/psi) of the demand tail, at most 3e-3 for the
# drawn alpha/psi >= 1.8.  The 8 193-point grid reaches 1e10 * r_m, so only
# its trapezoid error remains: 1.3e-6 at worst over 720 draws, and second
# order in the log step (65 537 points give 2e-8).
GRID_PRICE_TOL = {512: 3e-3, 8_193: 1e-5}


def _fmt2(x: float) -> str:
    return f"{x:.2f}"


def _fmt4(x: float) -> str:
    return f"{x:.4f}"


def trajectory_csv(points) -> str:
    """The trajectory formatted as the CLI's ``simulate --out`` file."""
    lines = ["t,price,price_slope,required_share,marginal_size,demand,supply,entry_rate,exit_rate,profit_frontier"]
    for p in points:
        lines.append(
            ",".join(
                (
                    _fmt4(p.t),
                    _fmt2(p.price),
                    _fmt2(p.price_slope),
                    _fmt4(p.required_share),
                    _fmt2(p.marginal_size),
                    _fmt2(p.demand),
                    _fmt2(p.supply),
                    _fmt4(p.entry_rate),
                    _fmt4(p.exit_rate),
                    _fmt2(p.profit_frontier),
                )
            )
        )
    return "\n".join(lines) + "\n"


def mature_capacity(points, params, price0: float) -> list[str]:
    """floor + (P0 - floor) * exp((alpha - psi - mu) t) at every point."""
    floor = params.cost_floor
    rate = params.alpha - params.psi - params.mu
    for p in points:
        expected = floor + (price0 - floor) * math.exp(rate * p.t)
        if abs(p.price - expected) > TRAJECTORY_REL_TOL * expected:
            return [f"mature capacity price {p.price!r} at t={p.t} vs closed form {expected!r}"]
    return []


def emerging(points, params) -> list[str]:
    bad = [p.t for p in points if p.price != params.entry_price]
    return [f"emerging price left entry_price at t={bad[0]}"] if bad else []


def literal(points, params) -> list[str]:
    prices = [p.price for p in points]
    if any(b > a for a, b in zip(prices, prices[1:])):
        return ["literal price path increases"]
    if min(prices) <= params.cost_floor:
        return ["literal price path reached the cost floor"]
    return []


def share_in_unit_interval(points) -> list[str]:
    bad = [p.t for p in points if not 0.0 <= p.required_share <= 1.0]
    return [f"required share outside [0, 1] at t={bad[0]}"] if bad else []


def share_range(share: float) -> list[str]:
    return [] if 0.0 <= share <= 1.0 else [f"required share {share!r} outside [0, 1]"]


def bracketed_root(residual, price: float) -> list[str]:
    """The clearing price lies within the solver tolerance of a sign change."""
    lo, hi = residual(price - PRICE_TOL), residual(price + PRICE_TOL)
    return [] if lo >= 0 >= hi else [f"no sign change within {PRICE_TOL} of price {price!r}"]


def anchor_price(price: float, price0: float) -> list[str]:
    return [] if abs(price - price0) <= PRICE_TOL else [f"anchored price {price!r} != price0 {price0!r}"]


def grid_price(price: float, closed: float, points: int) -> list[str]:
    tol = GRID_PRICE_TOL[points]
    rel = abs(price - closed) / closed
    return [] if rel <= tol else [f"{points}-point grid price off the closed form by {rel:.2e} > {tol:g}"]


def transport(values, expected) -> list[str]:
    worst = max(abs(a - b) / b for a, b in zip(values, expected))
    return [] if worst <= TRANSPORT_REL_TOL else [f"transport off the closed form by {worst:.2e}"]


def relative(name: str, got: float, want: float, tol: float = CALIBRATION_REL_TOL) -> list[str]:
    return [] if abs(got - want) <= tol * abs(want) else [f"{name}={got!r}, expected {want!r}"]
