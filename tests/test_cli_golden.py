"""Golden CLI outputs: sha256 digests of every file the CLI writes on the German config.

Any change to a printed value, a column, the row count or the formatting
shows up here.  The digests were recorded before the Brent clearing step
and the fused RK4 loop, so both are pinned to byte-identical CLI output.
Regenerate them (only for an intended output change) with

    PYTHONPATH=src python tests/test_cli_golden.py

and paste the printed dict over GOLDEN_DIGESTS.
"""

import hashlib
from pathlib import Path

import pytest

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

GOLDEN_DIGESTS = {
    "emerging.csv": "169b5ba5405840f12183350ffddf22f5f58077643c708b5ed7b83c8379bb503d",
    "fig2.csv": "7fda589ec43c9533303d8f1b7b345ef395ae6ffa1c3ed75cb90ee438b459e495",
    "fig3.csv": "ba07a80b04cf3c29ec55a3b47781b13307a01ad27dd185b4aca5b64c38e38b60",
    "literal.csv": "e1da6ba681cb759fbaa4c2f7b34a39319e8e4760281399037cc4228788962d69",
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
    written = sorted(path.name for path in workdir.glob("*.csv"))
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in written}


def test_cli_outputs_match_golden_digests(tmp_path):
    assert cli_digests(tmp_path) == GOLDEN_DIGESTS


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        pprint.pprint(cli_digests(Path(scratch)), sort_dicts=True)
