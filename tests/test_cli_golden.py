"""Golden CLI outputs: sha256 digests of every file the CLI writes on the German config,
and of the configs ``calibrate`` writes from the series and histogram of ``test_cli``.

Any change to a printed value, a column, the row count or the formatting
shows up here.  The digests were recorded before the Brent clearing step,
so it is pinned to byte-identical CLI output; ``literal.csv`` holds the
exact decline path, which RK4 steps missed by up to 2.85 EUR at dt = 0.01;
the ``calibrate`` digests were recorded before its template was rendered
from ``consultmarket.scenarios``.
Regenerate them (only for an intended output change) with

    PYTHONPATH=src python tests/test_cli_golden.py

and paste the printed dict over GOLDEN_DIGESTS.
"""

import hashlib
import os
from pathlib import Path

import test_cli
from consultmarket.cli import run

# the constants of consultmarket.scenarios, anchored at 7500 clients served at 37k EUR
GERMAN_CFG = """\
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

# the CLI arguments after ``--config``; every .csv argument is an output file
COMMANDS = (
    ["solve", "--fig2", "fig2.csv"],
    ["simulate", "--out", "trajectory.csv", "--fig3", "fig3.csv"],
    ["simulate", "--mu", "0.02", "--out", "emerging.csv"],
    ["simulate", "--mode", "literal", "--out", "literal.csv"],
    ["sweep", "--vary", "mu=0.02:0.09:0.005", "--out", "sweep_mu.csv"],
    ["sweep", "--vary", "alpha=0.04:0.08:0.005", "--out", "sweep_alpha.csv"],
)

# ``calibrate`` arguments, run from the work directory: the emitted config
# names its series file, so the inputs are given by relative path
CALIBRATE_COMMANDS = (
    ["--series", "in/series.csv", "--out", "calibrated.cfg"],
    ["--series", "in/series.csv", "--sizes", "in/sizes.csv", "--out", "calibrated_sizes.cfg"],
)

GOLDEN_DIGESTS = {
    "calibrated.cfg": "3596e3936361d561cc0ae2097f22d8a786b6763db0cb8174cbdcc6c0d2de47c2",
    "calibrated_sizes.cfg": "7d57b3c6051e83fe3ec49f845670d735963852324169a1f72cbc47cdcad358da",
    "emerging.csv": "169b5ba5405840f12183350ffddf22f5f58077643c708b5ed7b83c8379bb503d",
    "fig2.csv": "7fda589ec43c9533303d8f1b7b345ef395ae6ffa1c3ed75cb90ee438b459e495",
    "fig3.csv": "ba07a80b04cf3c29ec55a3b47781b13307a01ad27dd185b4aca5b64c38e38b60",
    "literal.csv": "bb823b8ae07404fca5eef739abe1d8735f28387c0957186af2d3ed155db26b10",
    "sweep_alpha.csv": "d8c92d5ab09b7ab95b9cbb61d6cac22d24dd0be5ab594006a0b9eb299b179088",
    "sweep_mu.csv": "79cd0e99ef249c5241ad54a7a170f67bbe54396f4f433202c19dbda22c6429ff",
    "trajectory.csv": "52d75b678fbac8acc98a66891c0efef36667fd7a586a91998159f6262f5566ac",
}


def cli_digests(workdir: Path) -> dict[str, str]:
    """Run every golden command in ``workdir``; sha256 of each written file."""
    config = workdir / "german.cfg"
    config.write_text(GERMAN_CFG, encoding="utf-8")
    for command, *rest in COMMANDS:
        argv = [command, "--config", str(config)]
        argv += [str(workdir / arg) if arg.endswith(".csv") else arg for arg in rest]
        assert run(argv) == 0, argv
    inputs = workdir / "in"
    inputs.mkdir()
    test_cli.TestCalibrate.write_series(inputs / "series.csv")
    (inputs / "sizes.csv").write_text(test_cli.SIZES_CSV, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for args in CALIBRATE_COMMANDS:
            assert run(["calibrate", *args]) == 0, args
    finally:
        os.chdir(cwd)
    written = sorted(path.name for pattern in ("*.csv", "*.cfg") for path in workdir.glob(pattern))
    written.remove(config.name)
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in written}


def test_cli_outputs_match_golden_digests(tmp_path):
    assert cli_digests(tmp_path) == GOLDEN_DIGESTS


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        pprint.pprint(cli_digests(Path(scratch)), sort_dicts=True)
