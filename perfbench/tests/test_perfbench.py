"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import spans
import speed
import stats
import workloads

import consultmarket


def test_tail_percentile_has_ten_samples_beyond_it():
    for n in range(1, 3000):
        q = stats.tail_percentile(n)
        samples = [float(k) for k in range(n)]
        if q == 50.0:
            assert n < 38
            continue
        value = stats.percentile(samples, q)
        assert sum(1 for x in samples if x > value) == stats.samples_beyond(n, q) >= 10
        higher = [h for h in stats.TAIL_LADDER if h > q]
        if higher:  # the next rung up would leave fewer than ten beyond it
            above = stats.percentile(samples, min(higher))
            assert sum(1 for x in samples if x > above) < 10


def test_tail_percentile_rungs():
    assert [stats.tail_percentile(n) for n in (37, 38, 100, 200, 1000, 10_000)] == [50.0, 75.0, 90.0, 95.0, 99.0, 99.9]


def test_percentile_matches_numpy():
    rng = np.random.default_rng(5)
    samples = list(rng.exponential(size=257))
    for q in (50.0, 75.0, 95.0, 99.9):
        assert stats.percentile(samples, q) == pytest.approx(np.percentile(samples, q), rel=1e-12)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds aa [2, 3]) and b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert list(spans.self_times(start, end, parent)) == [3.0, 2.0, 1.0, 4.0]


def test_aggregate_sums_by_name():
    arrays = {
        "name": np.array([0, 1, 2, 1]),
        "parent": np.array([-1, 0, 1, 0]),
        "op": np.zeros(4, dtype=int),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 9.0]),
    }
    agg = spans.aggregate(arrays, ["root", "a", "aa"])
    assert agg["a"] == {"calls": 2, "busy": 7.0, "self": 6.0}
    assert agg["root"] == {"calls": 1, "busy": 10.0, "self": 3.0}


def test_meter_scales_each_group_by_the_reference_around_it():
    times = iter([1.0, 3.0, 2.0])  # reference seconds at the three ticks
    meter = speed.Meter([], speed.Reference(lambda: next(times), nominal=1.0))
    meter.tick()
    meter.latencies += [10.0, 20.0]
    meter.tick()
    meter.latencies.append(6.0)
    meter.tick()
    # first group ran at half reference speed, the second at 0.4 of it
    assert meter.scaled() == pytest.approx([5.0, 10.0, 2.4])


def test_meter_rejects_operations_outside_groups():
    meter = speed.Meter([1.0], speed.Reference(lambda: 1.0, nominal=1.0))
    meter.tick()
    with pytest.raises(ValueError):
        meter.scaled()


def test_benchmark_json_lists_what_the_runs_print():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.all_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert bench["paths"] == [run.HERE.name]


def _bindings():
    """Every module and class binding in the package, by identity."""
    out = {}
    for mod in spans._package_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


def test_patches_wrap_every_binding_and_restore_them():
    import consultmarket.cli  # noqa: F401 - bind the CLI module too

    before = _bindings()
    original = consultmarket.equilibrium.price_slope
    with pytest.raises(RuntimeError):
        with spans.Patches(spans.Recorder()) as patches:
            assert patches.missing == []
            for holder in (consultmarket, consultmarket.equilibrium, consultmarket.dynamics):
                assert holder.price_slope is not original
                assert getattr(holder.price_slope, spans.MARK)
            assert getattr(vars(consultmarket.DemandSide)["at"], spans.MARK)
            raise RuntimeError("restore must also run when the traced code raises")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert spans.leftover_wrappers() == []


def test_traced_pass_records_nested_spans_and_repeats_counts(tmp_path):
    wl = workloads.ClearingOracle(seed=4, workdir=tmp_path)
    counts = []
    for _ in range(2):
        recorder = spans.Recorder()
        with spans.Patches(recorder):
            results = wl.run_pass([], recorder)
        tally = workloads.Tally()
        wl.verify(results, tally)
        assert tally.failed == 0
        agg = spans.aggregate(recorder.arrays(), recorder.names)
        counts.append({k: v["calls"] for k, v in agg.items()})
        assert all(v["self"] <= v["busy"] + 1e-12 for v in agg.values())
    assert counts[0] == counts[1]
    assert counts[0]["op.draw"] == len(wl.cases)
    assert counts[0][spans.RESIDUAL] > counts[0]["equilibrium.solve_equilibrium"]


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["cli-session", "trajectory-batch", "clearing-oracle"])
def test_smoke_run_has_no_errors(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "11", "--seconds", "0"]) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "trajectory-batch", "--seed", "11", "--seconds", "0", "--trace", "1"]) == 0
    result = _result(capsys)
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m for m, _ in layers.all_metrics()]
    assert result["metrics"]["numerics.integrate_tail.calls"]["value"] > 0
    assert spans.leftover_wrappers() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "trajectory-batch", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_saved_parts_keep_names_parents_and_operations(tmp_path):
    first = {"name": np.array([0, 1]), "parent": np.array([-1, 0]), "op": np.array([0, 0]),
             "start": np.array([0.0, 1.0]), "end": np.array([3.0, 2.0])}
    second = {"name": np.array([0, 1]), "parent": np.array([-1, 0]), "op": np.array([0, 0]),
              "start": np.array([5.0, 6.0]), "end": np.array([9.0, 7.0])}
    spans.save_parts([(first, ["op", "a"]), (second, ["b", "op"])], tmp_path / "s.npz")
    arrays, names = spans.load(tmp_path / "s.npz")
    assert names == ["op", "a", "b"]
    assert [names[i] for i in arrays["name"]] == ["op", "a", "b", "op"]
    assert list(arrays["parent"]) == [-1, 0, -1, 2]
    assert list(arrays["op"]) == [0, 0, 1, 1]
    assert spans.merge([(arrays, names)]) == spans.merge([(first, ["op", "a"]), (second, ["b", "op"])])
