"""Order statistics for latency samples."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` distinct samples lie above their ``q``-th percentile.

    The percentile interpolates from sorted position (n - 1) * q / 100, so
    every sample past the floor of that position is beyond it.  Integer
    arithmetic in tenths of a percent keeps the floor exact.
    """
    return n - 1 - (n - 1) * round(10 * q) // 1000


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples beyond it.

    Falls back to the median (50) below 38 samples,
    where no ladder percentile has ten samples above it.
    """
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 50.0


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(samples: list[float]) -> dict[str, float]:
    """Median, tail (with its percentile) and count of ``samples``."""
    q = tail_percentile(len(samples))
    return {
        "p50": statistics.median(samples),
        "tail": percentile(samples, q),
        "tail_percentile": q,
        "samples": len(samples),
    }
