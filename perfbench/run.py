"""consultmarket benchmark: one workload per run, or all three with ``--workload all``.

    python3 perfbench/run.py --workload trajectory-batch --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of the workload; with
``--trace 1`` it runs traced passes and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record with versions,
load, seed, units and sample counts goes to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"
WORKLOAD_NAMES = ("cli-session", "trajectory-batch", "clearing-oracle")
SETUP_PROBES = 5  # set-up is measured this many times per run; the median is reported
INTERPRETER_PROBES = 5
CLASSIFY = "equilibrium.classify_regime"


def _spawn_probe(workload: str, seed: int) -> tuple[float, dict]:
    """Start a fresh interpreter that sets the workload up; time it to ready."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} failed")
    return ready, json.loads(line)


def setup_probe(workload: str, seed: int) -> int:
    """Child side of ``_spawn_probe``: imports, inputs, anchoring, grids, files."""
    t0 = perf_counter()
    import numpy  # noqa: F401

    t1 = perf_counter()
    import consultmarket  # noqa: F401

    t2 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, WORK / f"probe-{os.getpid()}")
    print(json.dumps({"numpy_ms": 1e3 * (t1 - t0), "consultmarket_ms": 1e3 * (t2 - t1)}), flush=True)
    wl.close()
    return 0


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: set-up probes, one warm-up pass, then whole passes
    until the operations have taken ``seconds`` at reference speed.

    Every timing is taken twice: as wall time and at reference speed (see
    ``speed.py``).  The metrics use the reference-speed times.  Ending on
    reference-speed time keeps the sample count, and with it the tail
    percentile, the same when the host slows down.
    """
    import speed
    import stats

    probes = []
    meter = speed.Meter(probes, speed.SPAWN)
    for _ in range(SETUP_PROBES):
        meter.tick()
        probes.append(_spawn_probe(workload, seed)[0])
    meter.tick()
    setup = meter.scaled()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, WORK / f"{os.getpid()}-{workload}")
    tally = workloads.Tally()
    raw: list[float] = []
    latencies: list[float] = []
    labels: dict[str, list[float]] = {}
    try:
        wl.verify(wl.run_pass([]), tally)  # warm-up: checked, not timed
        while True:
            wall: list[float] = []
            meter = speed.Meter(wall, wl.reference)
            results = wl.run_pass(wall, meter=meter)
            at_ref = meter.scaled()
            raw += wall
            latencies += at_ref
            if workload == "cli-session":
                for (inv, _, _), sample in zip(results, at_ref):
                    labels.setdefault(inv.label, []).append(sample)
            wl.verify(results, tally)
            del results
            if sum(latencies) >= seconds:
                break
        if workload == "cli-session":
            peak_kb = wl.peak_child_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        wl.close()
    return {
        "workload": workload,
        "tally": tally,
        "setup_s": statistics.median(setup),
        "setup_samples": len(setup),
        "latency": stats.summary(latencies),
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": peak_kb / 1024.0,
        "labels": {k: statistics.median(v) for k, v in labels.items()},
        "label_samples": {k: len(v) for k, v in labels.items()},
        "wall": {
            "setup_s": statistics.median(probes),
            "latency": stats.summary(raw),
            "ops_per_s": len(raw) / sum(raw),
        },
    }


def end_to_end(m: dict) -> dict[str, tuple[float, str, int]]:
    """The end-to-end metrics of one workload, as BENCHMARK.json lists them: (value, unit, samples)."""
    lat, n = m["latency"], m["latency"]["samples"]
    return {
        "setup_s": (m["setup_s"], "s", m["setup_samples"]),
        "op_ms.p50": (1e3 * lat["p50"], "ms", n),
        "op_ms.tail": (1e3 * lat["tail"], "ms", n),
        "ops_per_s": (m["ops_per_s"], "1/s", n),
        "peak_rss_mb": (m["peak_rss_mb"], "MB", 1),
    }


def named_end_to_end(m: dict) -> dict[str, tuple[float, str, int]]:
    """The same measurements under per-workload names, as ``--workload all`` prints them."""
    w, lat, n = m["workload"], m["latency"], m["latency"]["samples"]
    out = {f"{w}.setup_s": (m["setup_s"], "s", m["setup_samples"])}
    if w == "cli-session":
        for label in ("calibrate", "solve", "simulate", "sweep"):
            out[f"cli.{label}_ms"] = (1e3 * m["labels"][label], "ms", m["label_samples"][label])
    elif w == "trajectory-batch":
        out["simulate_ms.p50"] = (1e3 * lat["p50"], "ms", n)
        out["simulate_ms.tail"] = (1e3 * lat["tail"], "ms", n)
        out["scenarios_per_s"] = (m["ops_per_s"], "1/s", n)
    else:  # one operation clears a draw on its three sides
        out["solve_ms.p50"] = (1e3 * lat["p50"], "ms", n)
        out["solve_ms.tail"] = (1e3 * lat["tail"], "ms", n)
        out["solves_per_s"] = (3 * m["ops_per_s"], "1/s", 3 * n)
    out[f"{w}.peak_rss_mb"] = (m["peak_rss_mb"], "MB", 1)
    tally = m["tally"]
    out[f"{w}.error_rate"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    return out


def traced(seed: int, seconds: float) -> tuple[dict, object, dict]:
    """Per-layer run: rounds of an untraced and a traced pass of every workload.

    Rounds repeat until ``seconds`` have passed (at least one).  Span counts
    are per operation, so they are the same however many rounds ran.  The
    tracing overhead compares the two passes at reference speed.
    """
    probes = [_spawn_probe("trajectory-batch", seed) for _ in range(SETUP_PROBES)]
    import layers
    import spans
    import speed
    import workloads

    tally = workloads.Tally()
    built = {name: workloads.WORKLOADS[name](seed, WORK / f"{os.getpid()}-{name}") for name in WORKLOAD_NAMES}
    totals: dict[str, dict] = {name: {} for name in WORKLOAD_NAMES}
    ops = dict.fromkeys(WORKLOAD_NAMES, 0)
    at_ref = {name: [0.0, 0.0] for name in WORKLOAD_NAMES}  # untraced, traced seconds
    emerging = {"calls": 0, "ops": 0}
    extras: dict = {}
    labels: dict[str, list[float]] = {}
    out_bytes: list[int] = []
    rounds = 0
    try:
        for wl in built.values():
            wl.verify(wl.run_pass([]), tally)  # warm-up, as in the untraced run
        start = perf_counter()
        while rounds == 0 or perf_counter() - start < seconds:
            for name, wl in built.items():
                plain: list[float] = []
                meter = speed.Meter(plain, wl.reference)
                results = wl.run_pass(plain, meter=meter)
                plain = meter.scaled()
                at_ref[name][0] += sum(plain)
                wl.verify(results, tally)
                if name == "cli-session":
                    for (inv, child, _), sample in zip(results, plain):
                        labels.setdefault(inv.label, []).append(sample)
                        out_bytes.append(child.output_bytes)
                    extras["dynamics.sweep.ok_ratio"] = wl.sweep_ok_ratio
                del results

                meter = speed.Meter([], wl.reference)
                if name == "cli-session":
                    parts: list = []
                    results = wl.run_pass(meter.latencies, meter=meter, traced=parts)
                    ops[name] += len(parts)
                else:
                    recorder = spans.Recorder()
                    with spans.Patches(recorder) as patches:
                        results = wl.run_pass(meter.latencies, recorder, meter)
                    parts = [(recorder.arrays(), recorder.names)]
                    ops[name] += len(wl.cases)
                    extras["missing_targets"] = patches.missing
                at_ref[name][1] += sum(meter.scaled())
                wl.verify(results, tally)
                if name == "trajectory-batch":
                    arrays, names = parts[0]
                    classify = names.index(CLASSIFY) if CLASSIFY in names else -1
                    emerging["calls"] += spans.calls_in_ops(arrays, classify, wl.emerging_ops())
                    emerging["ops"] += len(wl.emerging_ops())
                    if rounds == 0:
                        extras.update(wl.layer_extras(results))
                if rounds == 0:
                    spans.save_parts(parts, OUT / f"spans-{name}-seed{seed}.npz")
                del results
                spans.merge(parts, totals[name])
            rounds += 1
    finally:
        for wl in built.values():
            wl.close()
    values = layers.span_values(totals, ops)
    samples = {m: ops[workload] for m, workload, *_ in layers.SPAN_METRICS}
    co = totals["clearing-oracle"]
    solves = co.get("equilibrium.solve_equilibrium", {"calls": 0})["calls"]
    values["numerics.residual_evals_per_solve"] = co.get(spans.RESIDUAL, {"calls": 0})["calls"] / max(solves, 1)
    samples["numerics.residual_evals_per_solve"] = solves
    values["equilibrium.classify_regime.emerging_calls"] = emerging["calls"] / max(emerging["ops"], 1)
    samples["equilibrium.classify_regime.emerging_calls"] = emerging["ops"]
    values["import.interpreter_ms"] = 1e3 * statistics.median(speed.spawn_seconds() for _ in range(INTERPRETER_PROBES))
    values["import.numpy_ms"] = statistics.median(p[1]["numpy_ms"] for p in probes)
    values["import.consultmarket_ms"] = statistics.median(p[1]["consultmarket_ms"] for p in probes)
    samples.update({"import.interpreter_ms": INTERPRETER_PROBES, "import.numpy_ms": len(probes)})
    samples["import.consultmarket_ms"] = len(probes)
    values["cli.output_bytes"] = sum(out_bytes) / len(out_bytes)
    samples["cli.output_bytes"] = len(out_bytes)
    for label, runs in labels.items():
        values[f"cli.{label}.wall_ms"] = 1e3 * statistics.median(runs)
    for name, (plain, with_spans) in at_ref.items():
        values[f"trace.{name}.overhead_pct"] = 100.0 * (with_spans - plain) / plain
    missing = extras.pop("missing_targets")
    values.update(extras)
    metrics = {m: (values[m], u, samples.get(m, rounds)) for m, u in layers.all_metrics()}
    return metrics, tally, {"missing_targets": missing, "ops": ops, "rounds": rounds}


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "consultmarket").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None  # a checkout without git metadata
    toplevel, commit = out.stdout.split()
    return commit if Path(toplevel).resolve() == ROOT else None


def _record(args, load1: float, metrics: dict, tally, extra: dict) -> Path:
    import numpy

    import inputs

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "loadavg_1min_at_start": load1,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "input_shares": inputs.shares(args.seed),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "consultmarket" / "__init__.py").is_file():
        print(f"benchmark: no consultmarket package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one process, no extra threads: numpy's BLAS pool would start one per
    # core.  All work, children included, runs on one CPU, so the speed
    # kernel measures the core that the operations run on.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    load1 = os.getloadavg()[0]
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, tally, extra = traced(args.seed, args.seconds)
        elif args.workload == "all":
            import workloads

            metrics, tally, extra = {}, workloads.Tally(), {}
            for name in WORKLOAD_NAMES:
                m = measure(name, args.seed, args.seconds)
                metrics.update(named_end_to_end(m))
                tally.attempted += m["tally"].attempted
                tally.failed += m["tally"].failed
                tally.messages += m["tally"].messages
                extra[f"{name}.latency"] = m["latency"]
                extra[f"{name}.wall"] = m["wall"]
        else:
            m = measure(args.workload, args.seed, args.seconds)
            metrics, tally = end_to_end(m), m["tally"]
            extra = {"latency": m["latency"], "wall": m["wall"], "named": {k: v[0] for k, v in named_end_to_end(m).items()}}
    finally:
        try:
            WORK.rmdir()  # each workload removed its own directory
        except OSError:
            pass
    path = _record(args, load1, metrics, tally, extra)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (samples={samples})")
    for message in tally.messages:
        print(f"failure: {message}")
    print(f"record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
