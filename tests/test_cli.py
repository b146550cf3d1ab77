"""Command-line interface: subcommand behavior, exit codes, file outputs."""

import contextlib
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consultmarket import cli
from consultmarket.cli import TRAJECTORY_HEADER, run
from consultmarket.dynamics import COLUMNS
from consultmarket.scenarios import ScenarioConfig, german_transport_params

GERMAN_CFG = """\
# calibrated German transportation consulting scenario
[market]
v = 0.025
n = 1
c = 50000
delta_c = 25000
beta = 0.0002
psi = 0.036
mu = 0.05
alpha = 0.073
r_m = 1.3e6

[anchors]
served0 = 7500
price0 = 37000

[dynamics]
mode = capacity
horizon = 10
dt = 0.01
t = 0
"""

# a provider size histogram on g0/size with g0 = 16
SIZES_CSV = "size,provider_count\n1,16\n2,8\n4,4\n8,2\n16,1\n"


@pytest.fixture()
def german_cfg(tmp_path):
    path = tmp_path / "german.cfg"
    path.write_text(GERMAN_CFG, encoding="utf-8")
    return path


class TestSolve:
    def test_calibrated_output(self, german_cfg, capsys):
        assert run(["solve", "--config", str(german_cfg)]) == 0
        out = capsys.readouterr().out
        assert "price=37000.00" in out
        assert "regime=mature" in out
        assert "required_share=0.5200" in out
        assert "required_share_complement=0.4800" in out
        assert "marginal_size=2600.00" in out
        assert "served=7500.00" in out

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        assert run(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2

    def test_later_evaluation_time(self, german_cfg, capsys):
        # demand outgrows supply (alpha > mu), so the cleared price rises
        assert run(["solve", "--config", str(german_cfg), "--t", "5"]) == 0
        out = capsys.readouterr().out
        price = float(next(l for l in out.splitlines() if l.startswith("price=")).split("=")[1])
        assert price > 37_000.0

    def test_fig2_emission(self, german_cfg, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert run(["solve", "--config", str(german_cfg), "--fig2", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "price,demand,supply"
        assert len(lines) == 252
        first = lines[1].split(",")
        assert first[0] == "25000.00"
        assert first[2] == "0.00"  # supply vanishes at the cost floor

    def test_unclearable_market_is_numeric_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            GERMAN_CFG.replace("[anchors]\nserved0 = 7500\nprice0 = 37000\n", "")
            + "\n",
            encoding="utf-8",
        )
        # no anchors and no normalizations -> data error
        assert run(["solve", "--config", str(cfg)]) == 2
        cfg.write_text(
            GERMAN_CFG.replace("r_m = 1.3e6", "r_m = 1.3e6\nf0 = 1e9\ng0 = 3.125").replace(
                "[anchors]\nserved0 = 7500\nprice0 = 37000\n", ""
            ),
            encoding="utf-8",
        )
        assert run(["solve", "--config", str(cfg)]) == 3

    def test_overflowing_curves_are_numeric_errors(self, tmp_path, capsys):
        # f0 and g0 stay finite, but S overflows to inf above the floor
        cfg, out = tmp_path / "huge.cfg", tmp_path / "traj.csv"
        cfg.write_text(GERMAN_CFG.replace("served0 = 7500", "served0 = 1e308"), encoding="utf-8")
        assert run(["solve", "--config", str(cfg)]) == 3
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.count("numeric error: non-finite curve value") == 2
        assert not out.exists()

    def test_invalid_market_values_are_data_errors(self, german_cfg, tmp_path, capsys):
        cfg = tmp_path / "invalid.cfg"
        cfg.write_text(GERMAN_CFG.replace("alpha = 0.073", "alpha = 0.01"), encoding="utf-8")
        assert run(["solve", "--config", str(cfg)]) == 2

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(GERMAN_CFG + "\n[market]\n", encoding="utf-8")
        cfg.write_text(GERMAN_CFG.replace("mu = 0.05", "mo = 0.05"), encoding="utf-8")
        assert run(["solve", "--config", str(cfg)]) == 2


class TestConfigValidation:
    """Every value of a config is checked while it loads: a bad one is a data error."""

    @pytest.mark.parametrize(
        "edit, flags",
        [
            (None, ["--horizon", "1", "--dt", "0.3"]),
            (("mode = capacity", "mode = foo"), []),
            (("served0 = 7500", "served0 = -1"), []),
        ],
    )
    def test_invalid_dynamics_or_anchors_are_data_errors(self, tmp_path, capsys, edit, flags):
        cfg, out = tmp_path / "invalid.cfg", tmp_path / "traj.csv"
        cfg.write_text(GERMAN_CFG if edit is None else GERMAN_CFG.replace(*edit), encoding="utf-8")
        assert run(["simulate", "--config", str(cfg), *flags, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("served0 = 7500", "served0 = inf"),
            ("price0 = 37000", "price0 = inf"),
            ("mu = 0.05", "mu = inf"),
            ("c = 50000", "c = inf"),
            ("alpha = 0.073", "alpha = 1e300"),  # demand at the anchor underflows to 0
        ],
    )
    def test_non_finite_inputs_are_data_errors(self, tmp_path, capsys, old, new):
        cfg = tmp_path / "invalid.cfg"
        assert old in GERMAN_CFG
        cfg.write_text(GERMAN_CFG.replace(old, new), encoding="utf-8")
        assert run(["solve", "--config", str(cfg)]) == 2
        assert "data error" in capsys.readouterr().err


def _with_values(values: dict[str, float]) -> str:
    """GERMAN_CFG with the named keys set to the given values."""
    lines = []
    for line in GERMAN_CFG.splitlines():
        key = line.split(" = ")[0]
        lines.append(f"{key} = {values[key]!r}" if key in values else line)
    return "\n".join(lines) + "\n"


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


_CONFIG_KEYS = ("v", "n", "c", "delta_c", "beta", "psi", "mu", "alpha", "r_m", "served0", "price0", "horizon", "dt", "t")
_EXTREMES = (0.0, -1.0, 5e-324, 1e-300, 1e300, math.inf, -math.inf, math.nan)


class TestExtremeValues:
    """Extreme config values end in a typed error, or in output that is finite."""

    @pytest.mark.parametrize(
        "command, values, code",
        [
            ("solve", {"horizon": math.inf}, 2),
            ("simulate", {"dt": 5e-324}, 2),  # horizon/dt overflows to inf
            ("simulate", {"horizon": 1e300, "dt": 1e-300}, 2),  # too many steps to hold
            ("simulate", {"dt": 1e-300}, 2),
            ("solve", {"t": 1e300}, 3),  # the growth factor overflows
        ],
    )
    def test_time_settings(self, tmp_path, capsys, command, values, code):
        cfg, out = tmp_path / "extreme.cfg", tmp_path / "out.csv"
        cfg.write_text(_with_values(values), encoding="utf-8")
        flag = "--fig2" if command == "solve" else "--out"
        assert run([command, "--config", str(cfg), flag, str(out)]) == code
        assert ("data error" if code == 2 else "numeric error") in capsys.readouterr().err
        assert not out.exists()

    @given(
        values=st.dictionaries(st.sampled_from(_CONFIG_KEYS), st.sampled_from(_EXTREMES), max_size=3),
        command=st.sampled_from(["solve", "simulate"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_exception_escapes_and_exit_zero_is_finite(self, values, command):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "extreme.cfg", Path(tmp) / "out.csv"
            cfg.write_text(_with_values(values), encoding="utf-8")
            flag = "--fig2" if command == "solve" else "--out"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run([command, "--config", str(cfg), flag, str(out)])
            assert code in (0, 2, 3), stderr.getvalue()
            if code == 0:
                text = stdout.getvalue() + out.read_text(encoding="utf-8")
                cells = [float(tok) for tok in re.split(r"[,=\s]+", text) if _is_float(tok)]
                assert cells and all(math.isfinite(x) for x in cells)


class TestResolvedScenario:
    """Every command reads one resolved parameter set: the anchors pin only
    the normalizations the config leaves out."""

    @pytest.mark.parametrize(
        "given, price", [("g0 = 5", "33345.93"), ("f0 = 0.2\ng0 = 3.125", "45778.23")]
    )
    def test_solve_and_simulate_start_at_the_same_price(self, tmp_path, capsys, given, price):
        cfg, out = tmp_path / "mixed.cfg", tmp_path / "traj.csv"
        cfg.write_text(GERMAN_CFG.replace("r_m = 1.3e6", f"r_m = 1.3e6\n{given}"), encoding="utf-8")
        assert run(["solve", "--config", str(cfg)]) == 0
        assert f"price={price}\n" in capsys.readouterr().out
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1].split(",")[:2] == ["0.0000", price]


class TestClassify:
    def test_calibrated_regime(self, german_cfg, capsys):
        assert run(["classify", "--config", str(german_cfg)]) == 0
        out = capsys.readouterr().out
        assert "regime=mature" in out
        assert "margin=-0.2600" in out


class TestSimulate:
    def test_trajectory_csv(self, german_cfg, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run(
            ["simulate", "--config", str(german_cfg), "--mu", "0.05", "--horizon", "10", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 1002  # header + 1001 points
        final_price = float(lines[-1].split(",")[1])
        assert final_price == pytest.approx(25_000.0 + 12_000.0 * math.exp(-0.13), abs=0.01)

    def test_flag_overrides_config(self, german_cfg, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--config", str(german_cfg), "--mu", "0.055", "--out", str(out)]) == 0
        final_price = float(out.read_text(encoding="utf-8").splitlines()[-1].split(",")[1])
        expected = 25_000.0 + 12_000.0 * math.exp((0.037 - 0.055) * 10.0)
        assert final_price == pytest.approx(expected, abs=0.01)

    def test_byte_identical_reruns(self, german_cfg, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--config", str(german_cfg), "--out", str(a)]) == 0
        assert run(["simulate", "--config", str(german_cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fig3_emission(self, german_cfg, tmp_path, capsys):
        out, fig3 = tmp_path / "traj.csv", tmp_path / "fig3.csv"
        code = run(
            ["simulate", "--config", str(german_cfg), "--out", str(out), "--fig3", str(fig3)]
        )
        assert code == 0
        lines = fig3.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,price,required_share,exits"
        assert len(lines) == 1002
        # cumulative exits are non-decreasing
        exits = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a <= b + 1e-12 for a, b in zip(exits, exits[1:]))
        assert exits[-1] > 0

    def test_output_location_from_config_io_section(self, tmp_path, capsys):
        out = tmp_path / "from_config.csv"
        cfg = tmp_path / "german.cfg"
        cfg.write_text(
            GERMAN_CFG + f"\n[io]\ntrajectory = {out}\n", encoding="utf-8"
        )
        assert run(["simulate", "--config", str(cfg)]) == 0
        assert out.exists()

    def test_missing_output_location_is_usage_error(self, german_cfg, capsys):
        assert run(["simulate", "--config", str(german_cfg)]) == 1

    def test_overflowing_column_is_numeric_error(self, german_cfg, tmp_path, capsys):
        # the emerging path's demand overflows late in the horizon; no numpy
        # warning may leak (pytest turns RuntimeWarnings into errors)
        out = tmp_path / "traj.csv"
        argv = ["simulate", "--config", str(german_cfg), "--mu", "0.02", "--horizon", "30000", "--dt", "1"]
        assert run([*argv, "--out", str(out)]) == 3
        assert "numeric error: non-finite demand at t=" in capsys.readouterr().err
        assert not out.exists()

    def test_one_line_summary(self, german_cfg, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        run(["simulate", "--config", str(german_cfg), "--out", str(out)])
        stdout = capsys.readouterr().out
        assert stdout.count("\n") == 1
        assert "1001 points" in stdout


class TestSweep:
    def test_mu_sweep_csv(self, german_cfg, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run(
            ["sweep", "--config", str(german_cfg), "--vary", "mu=0.045:0.06:0.005", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("mu,final_price,price_drift_pct_per_year")
        assert len(lines) == 5  # header + 4 grid points
        drifts = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a > b for a, b in zip(drifts, drifts[1:]))

    def test_malformed_vary_is_usage_error(self, german_cfg, capsys):
        assert run(["sweep", "--config", str(german_cfg), "--vary", "mu=0.04", "--out", "x.csv"]) == 1

    def test_pinned_normalization_is_numeric_error(self, german_cfg, tmp_path, capsys):
        # the anchors pin f0, so every row would come out the same
        out = tmp_path / "sweep.csv"
        code = run(
            ["sweep", "--config", str(german_cfg), "--vary", "f0=0.1:0.4:0.1", "--out", str(out)]
        )
        assert code == 3
        assert "f0 is pinned by the anchors" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_parameter_is_numeric_error(self, german_cfg, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run(
            ["sweep", "--config", str(german_cfg), "--vary", "gamma=0:1:0.5", "--out", str(out)]
        )
        assert code == 3


class TestCalibrate:
    @staticmethod
    def write_series(path):
        rows = ["year,firm_count,total_revenue,births,entrant_revenue_mean"]
        count, revenue = 1000.0, 2.0e9
        rows.append(f"2010,{count},{revenue},0,1300000")
        for k in range(1, 10):
            births = 0.073 * count
            revenue = 1.036 * revenue + births * 1.3e6
            count += births
            rows.append(f"{2010 + k},{count!r},{revenue!r},{births!r},1300000")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    def test_round_trip_through_solve(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        self.write_series(series)
        cfg = tmp_path / "estimated.cfg"
        assert run(["calibrate", "--series", str(series), "--out", str(cfg)]) == 0
        text = cfg.read_text(encoding="utf-8")
        assert "psi = 0.036" in text
        assert "alpha = 0.073" in text
        assert run(["solve", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "price=37000.00" in out

    def test_sizes_histogram_pins_g0(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        self.write_series(series)
        sizes = tmp_path / "sizes.csv"
        sizes.write_text(SIZES_CSV, encoding="utf-8")
        cfg = tmp_path / "estimated.cfg"
        code = run(
            ["calibrate", "--series", str(series), "--sizes", str(sizes), "--out", str(cfg)]
        )
        assert code == 0
        assert "g0 = 16" in cfg.read_text(encoding="utf-8")

    def test_bad_series_is_data_error(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("year,firm_count\n2010,10\n", encoding="utf-8")
        assert run(["calibrate", "--series", str(series), "--out", str(tmp_path / "o.cfg")]) == 2


class TestEntryPoints:
    @pytest.mark.parametrize("module", ["consultmarket", "consultmarket.cli"])
    def test_python_m_runs_the_cli(self, module, german_cfg, tmp_path, monkeypatch, capsys):
        out = tmp_path / "traj.csv"
        argv = ["consultmarket", "simulate", "--config", str(german_cfg), "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        with warnings.catch_warnings(), pytest.raises(SystemExit) as exit_info:
            # runpy warns when the module it runs is already imported
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module(module, run_name="__main__")
        assert exit_info.value.code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1002

    @pytest.mark.parametrize("command", ["solve", "calibrate"])
    def test_closed_stdout_is_no_error(self, command, german_cfg, tmp_path):
        # ``consultmarket solve ... | head -1``: the reader is gone before
        # anything is printed, yet every requested file is written
        series, sizes, out = tmp_path / "series.csv", tmp_path / "sizes.csv", tmp_path / "out"
        TestCalibrate.write_series(series)
        sizes.write_text(SIZES_CSV, encoding="utf-8")
        argv = {
            "solve": ["solve", "--config", str(german_cfg), "--fig2", str(out)],
            "calibrate": ["calibrate", "--series", str(series), "--sizes", str(sizes), "--out", str(out)],
        }[command]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "consultmarket", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert out.read_text(encoding="utf-8").endswith("\n")
        if command == "solve":
            assert len(out.read_text(encoding="utf-8").splitlines()) == 252


# Runs CLI commands one after another in a fresh interpreter and prints, as
# JSON, each step's exit code and whether numpy was loaded after it.
_LEAN_IMPORTS_CHILD = """
import json, sys
steps = []
import consultmarket
steps.append(["import consultmarket", 0, "numpy" in sys.modules])
from consultmarket.cli import run
for argv in json.loads(sys.argv[1]):
    code = run(argv)
    steps.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


class TestLeanImports:
    def test_only_simulate_and_sweep_load_numpy(self, german_cfg, tmp_path):
        series, sizes = tmp_path / "series.csv", tmp_path / "sizes.csv"
        TestCalibrate.write_series(series)
        sizes.write_text(SIZES_CSV, encoding="utf-8")
        commands = [
            ["calibrate", "--series", str(series), "--out", str(tmp_path / "a.cfg")],
            ["calibrate", "--series", str(series), "--sizes", str(sizes), "--out", str(tmp_path / "b.cfg")],
            ["solve", "--config", str(german_cfg), "--fig2", str(tmp_path / "fig2.csv")],
            ["classify", "--config", str(german_cfg)],
            ["simulate", "--config", str(german_cfg), "--out", str(tmp_path / "traj.csv")],
        ]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", _LEAN_IMPORTS_CHILD, json.dumps(commands)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        steps = json.loads(proc.stdout.splitlines()[-1])
        assert [step[0] for step in steps] == ["import consultmarket", *(c[0] for c in commands)]
        assert all(code == 0 for _, code, _ in steps)
        assert [loaded for _, _, loaded in steps] == [False] * 5 + [True]

    def test_trajectory_header_names_the_trajectory_fields(self):
        assert TRAJECTORY_HEADER == ",".join(COLUMNS)

    @given(
        c=st.floats(min_value=1e3, max_value=1e6),
        share=st.floats(min_value=1e-6, max_value=1.0),
        n=st.floats(min_value=1.0, max_value=50.0),
        points=st.integers(min_value=2, max_value=300),
    )
    @settings(max_examples=50)
    def test_fig2_axis_is_numpy_linspace(self, c, share, n, points):
        params = german_transport_params().replace(c=c, delta_c=share * c, n=n)
        cfg = cli.RunConfig(scenario=ScenarioConfig(params), t=0.0, io={})
        with mock.patch.object(cli, "_columns_csv", lambda header, columns, formats: columns):
            prices = cli._fig2_csv(cfg, 0.0, points)[0]
        assert prices == np.linspace(params.cost_floor, params.full_local_cost, points).tolist()


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run([]) == 1

    def test_unknown_flag(self, german_cfg, capsys):
        assert run(["solve", "--config", str(german_cfg), "--frobnicate"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
