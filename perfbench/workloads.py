"""The three workloads.  Each is a closed loop with one caller: an operation
starts only after the previous one has finished.

Constructing a workload is its set-up (input generation, anchoring, grid
building, input files and reference outputs).  ``run_pass`` runs every
operation of the seed's input set once and returns what the operations
produced; ``verify`` checks those outputs afterwards, so checks stay out
of the timings and out of traced spans.  A pass keeps all its outputs
until it has been verified, as a scenario study keeps every path it plots.
"""

from __future__ import annotations

import configparser
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import consultmarket as cm

import checks
import inputs
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_CODE = "from consultmarket.cli import main; main()"


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.extend(failures[:2])


def _error(exc: Exception) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


def anchored(market: inputs.MarketDraw):
    """Validated, anchored ModelParams for a draw (raises DomainError if invalid)."""
    provisional = cm.ModelParams(**market.constants(), f0=1.0, g0=1.0)
    return cm.anchored_params(provisional, cm.AnchorConditions(served0=market.served0, price0=market.price0))


def deep_size(obj, seen: set[int] | None = None) -> int:
    """Bytes held by ``obj`` and everything it references (arrays included)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, np.ndarray):
        return size if obj.base is None else size + deep_size(obj.base, seen)
    if isinstance(obj, dict):
        return size + sum(deep_size(k, seen) + deep_size(v, seen) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return size + sum(deep_size(v, seen) for v in obj)
    if hasattr(obj, "__dict__"):
        size += deep_size(vars(obj), seen)
    for slot in getattr(type(obj), "__slots__", ()):
        if hasattr(obj, slot):
            size += deep_size(getattr(obj, slot), seen)
    return size


class TrajectoryBatch:
    """In-process simulate + summarize over 16 German-anchored scenarios."""

    name = "trajectory-batch"
    reference = speed.KERNEL

    def __init__(self, seed: int, workdir: Path) -> None:
        self.cases = []
        for draw in inputs.scenario_draws(seed):
            params = anchored(draw.market)
            config = cm.ScenarioConfig(params=params, mode=draw.mode, horizon=inputs.HORIZON, dt=inputs.DT)
            self.cases.append((draw, params, config))

    def run_pass(self, latencies: list[float], recorder: spans.Recorder | None = None, meter=None) -> list:
        results = []
        for draw, params, config in self.cases:
            if meter:
                meter.tick()
            root = recorder.begin_op("op.scenario") if recorder else None
            t0 = perf_counter()
            try:
                traj = cm.simulate(config)
                out = (traj, cm.summarize(traj))
            except Exception as exc:  # an operation that raises counts as failed
                out = exc
            latencies.append(perf_counter() - t0)
            if recorder:
                recorder.close(root)
            results.append((draw, params, out))
        if meter:
            meter.tick()
        return results

    def verify(self, results: list, tally: Tally) -> None:
        for draw, params, out in results:
            if isinstance(out, Exception):
                tally.record(_error(out))
                continue
            traj, summary = out
            points = list(traj)
            failures = checks.share_in_unit_interval(points)
            if draw.market.emerging:
                failures += checks.emerging(points, params)
            elif draw.mode == "literal":
                failures += checks.literal(points, params)
            else:
                failures += checks.mature_capacity(points, params, draw.market.price0)
            if summary.final_price != points[-1].price:
                failures.append("summary final price differs from the last point")
            tally.record(failures)

    def layer_extras(self, results: list) -> dict[str, float]:
        trajs = [out[0] for _, _, out in results if not isinstance(out, Exception)]
        return {
            "dynamics.points_per_run": sum(len(t) for t in trajs) / max(len(trajs), 1),
            "dynamics.trajectory_bytes": sum(deep_size(t) for t in trajs) / max(len(trajs), 1),
        }

    def emerging_ops(self) -> list[int]:
        return [k for k, (draw, _, _) in enumerate(self.cases) if draw.market.emerging]

    def close(self) -> None:
        pass


@dataclass
class _OracleCase:
    draw: inputs.OracleDraw
    params: object
    sides: list  # (grid points or 0 for closed form, demand, supply)
    transport_grid: object
    transport_expected: np.ndarray


class ClearingOracle:
    """In-process solve_equilibrium on closed-form and grid-backed sides, plus
    characteristics transport of the demand density.

    The timed operation is one draw cleared on all three sides.  Single
    solves differ 20-fold in cost between the sides, so per-solve latencies
    would put the median and the tail on boundaries between sides.  The
    transport is checked and counted but not timed.
    """

    name = "clearing-oracle"
    reference = speed.MIXED

    def __init__(self, seed: int, workdir: Path) -> None:
        self.cases = []
        for draw in inputs.oracle_draws(seed):
            p = anchored(draw.market)
            sides = [(0, cm.DemandSide.closed_form(p), cm.SupplySide.closed_form(p))]
            for points, cap in inputs.GRID_SIZES:
                sides.append(
                    (points, cm.DemandSide.with_grid(p, cap_factor=cap, points=points), cm.SupplySide.with_grid(p, points=points))
                )
            # an axis whose log-step divides the transport shift psi*t exactly,
            # so characteristics land on grid points and the oracle holds to 1e-6
            step = p.psi * draw.transport_t / inputs.TRANSPORT_SHIFT
            axis = p.r_m * np.exp(step * np.arange(inputs.TRANSPORT_SHIFT * inputs.TRANSPORT_SPAN + 1))
            exponent = -p.alpha / p.psi
            grid = cm.DensityGrid(axis=axis, values=p.alpha * p.f0 * (axis / p.r_m) ** exponent)
            expected = p.alpha * p.f0 * np.exp(p.alpha * draw.transport_t) * (axis / p.r_m) ** exponent
            self.cases.append(_OracleCase(draw, p, sides, grid, expected))

    def run_pass(self, latencies: list[float], recorder: spans.Recorder | None = None, meter=None) -> list:
        results = []
        for case in self.cases:
            if meter:
                meter.tick()
            root = recorder.begin_op("op.draw") if recorder else None
            solved = []
            t0 = perf_counter()
            for points, demand, supply in case.sides:
                try:
                    out = cm.solve_equilibrium(demand, supply, case.draw.t)
                except Exception as exc:  # an operation that raises counts as failed
                    out = exc
                solved.append((points, out))
            latencies.append(perf_counter() - t0)
            p = case.params
            try:
                moved = cm.evolve_density(
                    case.transport_grid,
                    rate=p.psi,
                    t=case.draw.transport_t,
                    inflow=lambda s: p.alpha * p.f0 * math.exp(p.alpha * s),
                )
            except Exception as exc:  # an operation that raises counts as failed
                moved = exc
            if recorder:
                recorder.close(root)
            results.append((case, solved, moved))
        if meter:
            meter.tick()
        return results

    def verify(self, results: list, tally: Tally) -> None:
        for case, solved, moved in results:
            t = case.draw.t
            closed = solved[0][1]
            for points, out in solved:
                if isinstance(out, Exception):
                    tally.record(_error(out))
                    continue
                if points == 0:
                    demand, supply = case.sides[0][1], case.sides[0][2]
                    failures = checks.bracketed_root(lambda x: demand.at(t, x) - supply.at(t, x), out.price)
                    if t == 0.0:
                        failures += checks.anchor_price(out.price, case.draw.market.price0)
                elif isinstance(closed, Exception):
                    failures = ["closed-form reference failed"]
                else:
                    failures = checks.grid_price(out.price, closed.price, points)
                failures += checks.share_range(out.required_share)
                tally.record(failures)
            if isinstance(moved, Exception):
                tally.record(_error(moved))
            else:
                tally.record(checks.transport(moved.grid.values, case.transport_expected))

    def close(self) -> None:
        pass


@dataclass
class Invocation:
    label: str
    argv: list[str]
    outputs: list[str]


@dataclass
class _Child:
    seconds: float
    returncode: int
    stdout: str
    maxrss_kb: int
    output_bytes: int


class CliSession:
    """One CLI invocation at a time, each in a fresh interpreter, on seed-made
    input files in a private work directory."""

    name = "cli-session"
    reference = speed.SPAWN

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=False)
        self.inputs = s = inputs.session_inputs(seed)
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.peak_child_kb = 0
        self.sweep_ok_ratio = 0.0
        self._write_inputs()
        m = s.market
        self.params = anchored(m)
        lo = s.sweep_values[0]
        hi = lo + (inputs.SWEEP_POINTS - 0.5) * inputs.SWEEP_STEP
        self.session = [
            Invocation(
                "calibrate",
                ["calibrate", "--series", "series.csv", "--sizes", "sizes.csv", "--out", "calibrated.cfg"],
                ["calibrated.cfg"],
            ),
            Invocation("solve", ["solve", "--config", "scenario.cfg", "--fig2", "fig2.csv"], ["fig2.csv"]),
            Invocation(
                "simulate",
                ["simulate", "--config", "scenario.cfg", "--out", "capacity.csv", "--fig3", "fig3.csv"],
                ["capacity.csv", "fig3.csv"],
            ),
            # both simulate runs write the same two files, so they differ
            # only in slope mode and cost about the same; the median of the
            # session then does not sit on a gap between two commands
            Invocation(
                "simulate_literal",
                ["simulate", "--config", "scenario.cfg", "--mode", "literal", "--out", "literal.csv", "--fig3", "fig3.csv"],
                ["literal.csv", "fig3.csv"],
            ),
            Invocation(
                "sweep",
                ["sweep", "--config", "scenario.cfg", "--vary", f"mu={lo!r}:{hi!r}:{inputs.SWEEP_STEP!r}", "--out", "sweep.csv"],
                ["sweep.csv"],
            ),
        ]
        # expected outputs from the library, checked once here
        anchors = cm.AnchorConditions(served0=m.served0, price0=m.price0)
        self.expected: dict[str, tuple[str, list[str]]] = {}
        for label, mode in (("simulate", "capacity"), ("simulate_literal", "literal")):
            config = cm.ScenarioConfig(params=self.params, mode=mode, horizon=inputs.HORIZON, dt=inputs.DT, anchors=anchors)
            points = list(cm.simulate(config))
            failures = checks.share_in_unit_interval(points)
            if mode == "capacity":
                failures += checks.mature_capacity(points, self.params, m.price0)
            else:
                failures += checks.literal(points, self.params)
            self.expected[label] = (checks.trajectory_csv(points), failures)
        eq = cm.solve_equilibrium(cm.DemandSide.closed_form(self.params), cm.SupplySide.closed_form(self.params), 0.0)
        self.expected["solve"] = (f"price={eq.price:.2f}", checks.anchor_price(eq.price, m.price0))

    def _write_inputs(self) -> None:
        s, w = self.inputs, self.workdir
        rows = ["year,firm_count,total_revenue,births,entrant_revenue_mean"]
        rows += [",".join(repr(x) for x in row) for row in s.series_rows]
        (w / "series.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        sizes = ["size,provider_count"] + [f"{x!r},{s.histogram_g0 / x!r}" for x in inputs.HISTOGRAM_SIZES]
        (w / "sizes.csv").write_text("\n".join(sizes) + "\n", encoding="utf-8")
        lines = ["[market]"] + [f"{k} = {v!r}" for k, v in s.market.constants().items()]
        lines += ["[anchors]", f"served0 = {s.market.served0!r}", f"price0 = {s.market.price0!r}"]
        lines += ["[dynamics]", "mode = capacity", f"horizon = {inputs.HORIZON!r}", f"dt = {inputs.DT!r}"]
        (w / "scenario.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _spawn(self, argv: list[str], outputs: list[str]) -> _Child:
        for name in outputs:
            (self.workdir / name).unlink(missing_ok=True)
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        size = sum((self.workdir / n).stat().st_size for n in outputs if (self.workdir / n).exists())
        return _Child(seconds, proc.returncode, stdout.decode("utf-8", "replace"), usage.ru_maxrss, size)

    def run_pass(self, latencies: list[float], meter=None, traced: list | None = None) -> list:
        """One session.  With ``traced`` given, each child runs under the
        span launcher and its span file is loaded and appended there."""
        results = []
        for k, inv in enumerate(self.session):
            if meter:
                meter.tick()
            if traced is None:
                argv = [sys.executable, "-c", CLI_CODE, *inv.argv]
            else:
                spans_file = self.workdir / f"spans-{k}.npz"
                argv = [sys.executable, str(HERE / "launch.py"), str(spans_file), *inv.argv]
            child = self._spawn(argv, inv.outputs)
            latencies.append(child.seconds)
            failures = self._check(inv, child)
            if traced is not None and child.returncode == 0:
                traced.append(spans.load(spans_file))
            results.append((inv, child, failures))
        if meter:
            meter.tick()
        return results

    def _check(self, inv: Invocation, child: _Child) -> list[str]:
        """Read the files this invocation wrote before the next one replaces them."""
        if child.returncode != 0:
            return [f"{inv.label} exited {child.returncode}: {child.stdout.strip()[-200:]}"]
        w = self.workdir
        if inv.label == "calibrate":
            cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
            cfg.read(w / "calibrated.cfg", encoding="utf-8")
            psi, alpha, r_m = self.inputs.series_rates
            market = cfg["market"]
            return (
                checks.relative("psi", float(market["psi"]), psi)
                + checks.relative("alpha", float(market["alpha"]), alpha)
                + checks.relative("r_m", float(market["r_m"]), r_m)
                + checks.relative("g0", float(market["g0"]), self.inputs.histogram_g0)
            )
        if inv.label == "solve":
            line, failures = self.expected["solve"]
            if line not in child.stdout.splitlines():
                failures = failures + [f"solve printed no {line!r}"]
            rows = (w / "fig2.csv").read_text(encoding="utf-8").count("\n")
            return failures + ([] if rows == 252 else [f"fig2 has {rows} lines, expected 252"])
        if inv.label in ("simulate", "simulate_literal"):
            text, failures = self.expected[inv.label]
            if (w / inv.outputs[0]).read_text(encoding="utf-8") != text:
                failures = failures + [f"{inv.label} CSV differs from the library trajectory"]
            return failures
        return self._check_sweep()

    def _check_sweep(self) -> list[str]:
        rows = (self.workdir / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        self.sweep_ok_ratio = sum(1 for r in rows if not r.split(",")[6]) / max(len(rows), 1)
        values = self.inputs.sweep_values
        if len(rows) != len(values):
            return [f"sweep wrote {len(rows)} rows, expected {len(values)}"]
        failures = []
        entry = f"{self.params.entry_price:.2f}"
        for mu, row in zip(values, rows):
            cells = row.split(",")
            if cells[6]:
                failures.append(f"sweep row mu={mu} failed: {cells[6]}")
            elif mu <= self.inputs.market.threshold and cells[1] != entry:
                failures.append(f"emerging sweep row mu={mu} left the entry price: {cells[1]}")
            elif mu > self.inputs.market.threshold and not float(cells[1]) < self.inputs.market.price0:
                failures.append(f"mature sweep row mu={mu} did not decline: {cells[1]}")
        return failures

    def verify(self, results: list, tally: Tally) -> None:
        for _, _, failures in results:
            tally.record(failures)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CliSession, TrajectoryBatch, ClearingOracle)}
