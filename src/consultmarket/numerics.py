"""Deterministic numeric kernels: tail quadrature, Brent root finding, RK4 stepping.

The quadrature and the RK4 path are kept deliberately simple: the closed
forms elsewhere are primary and these routines serve as the independent
cross-check path, so robustness and bit-reproducibility beat
sophistication.  The root finder clears every market, on closed-form and
grid-backed sides alike; it needs no derivatives, keeps a sign-change
bracket throughout and is bit-reproducible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NoBracketError, NumericError

__all__ = [
    "DensityGrid",
    "Bracket",
    "integrate_tail",
    "find_root",
    "rk4_step",
    "step_path",
    "DEFAULT_PRICE_TOL",
    "DEFAULT_GRID_POINTS",
]

# Root tolerance for price solves: far below any economic significance.
DEFAULT_PRICE_TOL = 1e-6
# Default sample count for density grids.
DEFAULT_GRID_POINTS = 512
# Most residual evaluations a root solve makes beyond plain bisection of
# the same bracket to the same tolerance.
MAX_EXTRA_EVALS = 6
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class DensityGrid:
    """Sampled density over a strictly increasing axis.

    ``axis`` holds the sample points (typically log-spaced), ``values`` the
    non-negative density samples.  Arrays are copied and frozen on
    construction, so grids can be shared across threads.
    """

    axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float).copy()
        values = np.asarray(self.values, dtype=float).copy()
        if axis.ndim != 1 or values.shape != axis.shape:
            raise DomainError("axis and values must be 1-d arrays of equal length")
        if axis.size < 16:
            raise DomainError(f"grid needs at least 16 points, got {axis.size}")
        if not np.all(np.diff(axis) > 0):
            raise DomainError("axis must be strictly increasing")
        if not np.all(values >= 0):
            raise DomainError("density values must be non-negative")
        if not (np.all(np.isfinite(axis)) and np.all(np.isfinite(values))):
            raise DomainError("axis and values must be finite")
        axis.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)

    @property
    def lower_bound(self) -> float:
        return float(self.axis[0])

    @property
    def upper_bound(self) -> float:
        return float(self.axis[-1])

    @classmethod
    def log_spaced(
        cls,
        lower: float,
        upper: float,
        fn: Callable[[np.ndarray], np.ndarray],
        points: int = DEFAULT_GRID_POINTS,
    ) -> "DensityGrid":
        """Sample ``fn`` on a log-spaced axis from ``lower`` to ``upper``."""
        if lower <= 0 or upper <= lower:
            raise DomainError("log-spaced axis needs 0 < lower < upper")
        axis = np.exp(np.linspace(math.log(lower), math.log(upper), points))
        # pin the endpoints exactly despite exp/log round-trip noise
        axis[0], axis[-1] = lower, upper
        return cls(axis=axis, values=np.asarray(fn(axis), dtype=float))

    def interp(self, x: float) -> float:
        """Linearly interpolated density at ``x`` (must lie on the axis span)."""
        if not self.lower_bound <= x <= self.upper_bound:
            raise DomainError(
                f"{x!r} outside grid domain [{self.lower_bound!r}, {self.upper_bound!r}]"
            )
        return float(np.interp(x, self.axis, self.values))


def integrate_tail(grid: DensityGrid, from_: float, weight: str = "none") -> float:
    """Trapezoidal integral of the grid density from ``from_`` to the upper edge.

    ``weight="identity"`` multiplies the density by the axis value first
    (the employee-weighted supply integrand).  The partial cell at ``from_``
    is cut by interpolating the integrand linearly, which keeps the result
    additive over adjacent intervals.
    """
    if weight not in ("none", "identity"):
        raise DomainError(f"weight must be 'none' or 'identity', got {weight!r}")
    if not grid.lower_bound <= from_ <= grid.upper_bound:
        raise DomainError(
            f"integration start {from_!r} outside grid domain"
            f" [{grid.lower_bound!r}, {grid.upper_bound!r}]"
        )
    integrand = grid.values if weight == "none" else grid.axis * grid.values
    if from_ == grid.upper_bound:
        return 0.0
    # first axis index strictly right of from_
    i = int(np.searchsorted(grid.axis, from_, side="right"))
    tail = float(np.trapezoid(integrand[i - 1 :], grid.axis[i - 1 :]))
    if from_ > grid.axis[i - 1]:
        # remove the sliver [axis[i-1], from_] of the cut cell
        y0, y1 = integrand[i - 1], integrand[i]
        x0, x1 = grid.axis[i - 1], grid.axis[i]
        y_from = y0 + (y1 - y0) * (from_ - x0) / (x1 - x0)
        tail -= 0.5 * (y0 + y_from) * (from_ - x0)
    return tail


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] with residuals of opposite (or zero) sign."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"bracket needs lo < hi, got [{self.lo!r}, {self.hi!r}]")
        if self.f_lo * self.f_hi > 0:
            raise DomainError("bracket residuals must not share a sign")

    @classmethod
    def from_fn(cls, residual: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        """Evaluate ``residual`` at both ends; raise if no sign change."""
        f_lo, f_hi = residual(lo), residual(hi)
        if f_lo * f_hi > 0:
            raise NoBracketError("no equilibrium in bracket", lo, hi, f_lo, f_hi)
        return cls(lo=lo, hi=hi, f_lo=f_lo, f_hi=f_hi)


def find_root(
    residual: Callable[[float], float],
    bracket: Bracket,
    tol_abs: float = DEFAULT_PRICE_TOL,
) -> float:
    """Brent's root of a residual that changes sign on ``bracket``.

    The zeroin scheme (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4): inverse-quadratic or secant steps from the
    best point ``b``, and a bisection step whenever the interpolated point
    would leave the bracket or the steps stop halving.  No step is shorter
    than tol_abs/2, so a ``b`` that converges from one side steps across
    the root.  A bisection step is also forced whenever the bracket has
    fallen more than MAX_EXTRA_EVALS - 1 halvings behind plain bisection,
    so no residual, however discontinuous, costs more than MAX_EXTRA_EVALS
    evaluations beyond bisection; a smooth one costs a handful in all.

    ``b`` and the contrapoint ``c`` always straddle a sign change.  Once
    they are at most ``tol_abs`` apart, their midpoint is returned (a point
    where the residual is exactly 0 is returned as is), so the result lies
    within tol_abs/2 of a sign change.  Purely deterministic: identical
    inputs give bit-identical output.
    """
    if tol_abs <= 0:
        raise DomainError(f"tol_abs must be > 0, got {tol_abs!r}")
    a, fa = bracket.lo, bracket.f_lo  # previous iterate
    b, fb = bracket.hi, bracket.f_hi  # best iterate
    c, fc = a, fa  # contrapoint: residual(c) and residual(b) straddle 0
    d = e = b - a  # the last two steps
    # bracket width above which the next step must bisect; halved per evaluation
    limit = (b - a) * 2.0 ** (MAX_EXTRA_EVALS - 1)
    while True:
        if (fb > 0) == (fc > 0):  # same side: the sign change lies between a and b
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        m = 0.5 * (c - b)
        if fb == 0:
            return b
        if abs(c - b) <= tol_abs or abs(m) <= 2.0 * _EPS * abs(b):  # or at float resolution
            return b + m
        tol1 = 0.5 * tol_abs + 2.0 * _EPS * abs(b)
        if abs(e) >= tol1 and abs(fa) > abs(fb) and abs(c - b) <= limit:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = m
        else:
            e = d = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = residual(b)
        limit *= 0.5


def rk4_step(
    slope_fn: Callable[[float, float], float], t: float, y: float, dt: float
) -> float:
    """One classical Runge-Kutta step of size ``dt``.

    Raises NumericError with the offending (t, y) if any stage slope is
    non-finite.
    """
    k1 = slope_fn(t, y)
    k2 = slope_fn(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = slope_fn(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = slope_fn(t + dt, y + dt * k3)
    for k in (k1, k2, k3, k4):
        if not math.isfinite(k):
            raise NumericError(f"non-finite slope near t={t!r}, value={y!r}")
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_path(
    slope_fn: Callable[[float, float], float],
    t0: float,
    y0: float,
    dt: float,
    steps: int,
) -> np.ndarray:
    """Integrate dy/dt = slope_fn(t, y) with fixed-step RK4.

    Returns an array of shape (steps + 1, 2) holding (t, y) including the
    initial point.  Global error is O(dt^4) on smooth slopes.
    """
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt!r}")
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps!r}")
    out = np.empty((steps + 1, 2), dtype=float)
    out[0] = (t0, y0)
    t, y = t0, y0
    for k in range(1, steps + 1):
        y = rk4_step(slope_fn, t, y, dt)
        t = t0 + k * dt
        out[k] = (t, y)
    return out
