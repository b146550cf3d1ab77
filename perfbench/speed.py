"""Host speed references: wall times are reported at a fixed reference speed.

Shared hosts can change speed by up to 2x for tens of seconds at a time
(a 2-core x86-64 host did; CPU time swung as much as wall time, so it was
not descheduling).  The benchmark therefore brackets each group of
operations (a scenario, a draw, a CLI command) with a run of a fixed
reference task that does not touch the program, and scales the group's
wall times by the reference's nominal time over its mean time around the
group.  A program change cannot move the reference, so scaled times still
move with the program, while host speed swings largely cancel.  Raw wall
times go to the run record next to the scaled ones.

Each workload uses the reference closest to its own work, because a
reference tracks only work like its own.  Scalar in-process operations
follow ``KERNEL``, a pure-Python loop.  Solves that also sweep 8 193-point
arrays follow ``MIXED``, the loop plus trapezoid tails over such an array.
Operations that start an interpreter (CLI commands, set-up probes) follow
``SPAWN``, a bare ``python -c pass``; a loop in the parent tracks them no
better than raw wall time does.
"""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def kernel() -> float:
    """Float arithmetic, calls and small frozen-dataclass allocations."""
    acc, x = 0.0, 1.0
    for i in range(1600):
        x = x * 0.9999999 + 0.5 / (i + 1.0)
        acc += _Point(x, math.exp(-x * 1e-6)).y
    return acc


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


_AXIS = np.exp(np.linspace(0.0, 23.0, 8_193))


def mixed_seconds() -> float:
    """The kernel plus sixteen trapezoid tails over an 8 193-point axis."""
    t0 = perf_counter()
    kernel()
    for k in range(16):
        i = int(np.searchsorted(_AXIS, 1.0 + k))
        float(np.trapezoid(_AXIS[i:] * (1.0 / _AXIS[i:]), _AXIS[i:]))
    return perf_counter() - t0


def spawn_seconds() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - t0


@dataclass(frozen=True)
class Reference:
    measure: Callable[[], float]
    # seconds; defines the reference speed.  The values below are about each
    # reference's time on an unloaded 2-core x86-64 host (Python 3.11), so
    # scaled times read close to wall times there.
    nominal: float

    def factor(self, before: float, after: float) -> float:
        """Wall-to-reference time factor for work between two measurements."""
        return 2.0 * self.nominal / (before + after)


KERNEL = Reference(kernel_seconds, 0.001)
MIXED = Reference(mixed_seconds, 0.0015)
SPAWN = Reference(spawn_seconds, 0.045)


class Meter:
    """Reference measurements between groups of operations appended to ``latencies``.

    Call ``tick()`` before the first group, between groups and after the
    last one; ``scaled()`` then returns every latency at reference speed.
    """

    def __init__(self, latencies: list[float], reference: Reference = KERNEL) -> None:
        self.latencies = latencies
        self.reference = reference
        self.marks: list[tuple[int, float]] = []  # (operations done, reference seconds)

    def tick(self) -> None:
        self.marks.append((len(self.latencies), self.reference.measure()))

    def scaled(self) -> list[float]:
        out = []
        for (start, before), (end, after) in zip(self.marks, self.marks[1:]):
            factor = self.reference.factor(before, after)
            out += [x * factor for x in self.latencies[start:end]]
        if len(out) != len(self.latencies):
            raise ValueError("operations recorded outside ticked groups")
        return out
