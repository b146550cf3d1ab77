"""Command-line front door: config parsing, orchestration, CSV emission.

Subcommands
-----------
calibrate   turn a yearly series CSV (and optional size histogram) into a config
solve       clear the market at one instant; optionally emit the curve CSV
classify    print the regime label and classifier margin
simulate    integrate the market path and write the trajectory CSV
sweep       re-run a scenario across one parameter's grid

Config files are INI-style text (``key = value`` under ``[section]``,
``#`` comments) with sections ``market``, ``anchors``, ``dynamics`` and
``io``.  Every flag has a config equivalent; flags win.  Exit codes:
0 success (also when the reader closes stdout early), 1 usage, 2 data,
3 numeric.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .calibration import (
    AnchorConditions,
    estimate_rates,
    fit_zipf,
    load_series,
    load_size_histogram,
)
from .curves import DemandSide, SupplySide
from .equilibrium import classify_regime, solve_equilibrium
from .errors import ConsultMarketError, DataError, DomainError
from .model import ModelParams
from .scenarios import ScenarioConfig, german_transport_anchors, german_transport_params

if TYPE_CHECKING:
    from .dynamics import Trajectory

__all__ = ["run", "main", "RunConfig"]

MARKET_KEYS = ("v", "n", "c", "delta_c", "beta", "psi", "mu", "alpha", "r_m", "f0", "g0")
ANCHOR_KEYS = ("served0", "price0")
DYNAMICS_KEYS = ("mode", "horizon", "dt", "t")
IO_KEYS = ("fig2", "fig3", "trajectory", "sweep", "series", "sizes", "config_out")

# dynamics.COLUMNS written out, so that cli needs no numpy; a test holds them equal
TRAJECTORY_COLUMNS = ("t", "price", "price_slope", "required_share", "marginal_size", "demand", "supply",
                      "entry_rate", "exit_rate", "profit_frontier")
TRAJECTORY_HEADER = ",".join(TRAJECTORY_COLUMNS)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


CURRENCY, FRACTION = "{:.2f}", "{:.4f}"
_fmt_currency, _fmt_fraction = CURRENCY.format, FRACTION.format
# time, shares and flow rates get four decimals, everything else two
_FRACTION_COLUMNS = ("t", "required_share", "entry_rate", "exit_rate")
TRAJECTORY_FORMATS = tuple(FRACTION if name in _FRACTION_COLUMNS else CURRENCY for name in TRAJECTORY_COLUMNS)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class RunConfig:
    """Config-file values merged with flag overrides, fully validated."""

    scenario: ScenarioConfig
    t: float
    io: dict[str, str]


def _parse_float(section: str, key: str, raw: str, path: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"[{section}] {key} = {raw!r} is not a number", path=path) from None


def _float_section(parser: ConfigParser, section: str, path: Path) -> dict[str, float]:
    if not parser.has_section(section):
        return {}
    return {key: _parse_float(section, key, raw, str(path)) for key, raw in parser[section].items()}


def load_config(path: str | Path, overrides: dict[str, object] | None = None) -> RunConfig:
    """Read an INI config and apply flag overrides (flags win on conflict)."""
    path = Path(path)
    if not path.exists():
        raise DataError("config file not found", path=str(path))
    parser = ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path, encoding="utf-8")
    except ConfigParserError as exc:
        raise DataError(f"cannot parse config: {exc}", path=str(path)) from None

    known = {"market": MARKET_KEYS, "anchors": ANCHOR_KEYS, "dynamics": DYNAMICS_KEYS, "io": IO_KEYS}
    for section in parser.sections():
        if section not in known:
            raise DataError(f"unknown section [{section}]", path=str(path))
        for key in parser[section]:
            if key not in known[section]:
                raise DataError(f"unknown key {key!r} in [{section}]", path=str(path))

    market = _float_section(parser, "market", path)
    anchors = _float_section(parser, "anchors", path) if parser.has_section("anchors") else None
    if anchors is not None:
        missing = [k for k in ANCHOR_KEYS if k not in anchors]
        if missing:
            raise DataError(f"[anchors] missing {', '.join(missing)}", path=str(path))

    dynamics: dict = {"t": 0.0}  # ScenarioConfig holds the other defaults
    if parser.has_section("dynamics"):
        for key, raw in parser["dynamics"].items():
            dynamics[key] = raw.strip() if key == "mode" else _parse_float("dynamics", key, raw, str(path))
    io = dict(parser["io"]) if parser.has_section("io") else {}

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key in MARKET_KEYS:
            market[key] = float(value)  # type: ignore[arg-type]
        elif key in DYNAMICS_KEYS:
            dynamics[key] = str(value) if key == "mode" else float(value)  # type: ignore[arg-type]
        elif key in IO_KEYS:
            io[key] = str(value)
        else:
            raise UsageError(f"unknown override {key!r}")

    missing = [k for k in MARKET_KEYS[:-2] if k not in market]
    if missing:
        raise DataError(f"[market] missing {', '.join(missing)}", path=str(path))
    need_anchor = [k for k in ("f0", "g0") if k not in market]
    if need_anchor and anchors is None:
        raise DataError(
            f"[market] {', '.join(need_anchor)} absent and no [anchors] section to pin them",
            path=str(path),
        )
    t = dynamics.pop("t")
    try:
        # the anchors pin the normalizations the config leaves out (those
        # start at 1.0); the anchor solve is checked here, as the config loads
        conditions = None if anchors is None else AnchorConditions(**anchors, pins=tuple(need_anchor))
        params = ModelParams(**{"f0": 1.0, "g0": 1.0, **market})
        scenario = ScenarioConfig(params, anchors=conditions, **dynamics)
        scenario.resolved_params()
        if not (math.isfinite(t) and t >= 0):
            raise DomainError(f"t must be finite and >= 0, got {t!r}")
    except DomainError as exc:
        raise DataError(f"invalid config: {exc}", path=str(path)) from None
    return RunConfig(scenario=scenario, t=t, io=io)


def _curve_sides(cfg: RunConfig) -> tuple[DemandSide, SupplySide]:
    params = cfg.scenario.resolved_params()
    return DemandSide.closed_form(params), SupplySide.closed_form(params)


def _columns_csv(header: str, columns: list[list[float]], formats: tuple[str, ...]) -> str:
    row = ",".join(formats)
    return "\n".join([header, *(row.format(*values) for values in zip(*columns))]) + "\n"


def _fig2_csv(cfg: RunConfig, t: float, points: int = 251) -> str:
    demand, supply = _curve_sides(cfg)
    lo, hi = demand.params.cost_floor, demand.params.full_local_cost
    # numpy's linspace(lo, hi, points), bit for bit
    prices = [k * ((hi - lo) / (points - 1)) + lo for k in range(points - 1)] + [hi]
    d, s = demand.curve(t), supply.curve(t)
    columns = [prices, [d(x) for x in prices], [s(x) for x in prices]]
    return _columns_csv("price,demand,supply", columns, (CURRENCY,) * 3)


def _trajectory_csv(traj: Trajectory) -> str:
    columns = [getattr(traj, name).tolist() for name in TRAJECTORY_COLUMNS]
    return _columns_csv(TRAJECTORY_HEADER, columns, TRAJECTORY_FORMATS)


def _fig3_csv(traj: Trajectory) -> str:
    from .dynamics import cumulative_flow
    columns = [traj.t, traj.price, traj.required_share, cumulative_flow(traj.exit_rate, traj.t)]
    return _columns_csv(
        "t,price,required_share,exits",
        [column.tolist() for column in columns],
        (FRACTION, CURRENCY, FRACTION, FRACTION),
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, {"t": args.t, "fig2": args.fig2})
    demand, supply = _curve_sides(cfg)
    result = solve_equilibrium(demand, supply, cfg.t, slope_mode=cfg.scenario.mode)
    lines = [
        f"price={_fmt_currency(result.price)}",
        f"regime={result.regime.tag}",
        f"required_share={_fmt_fraction(result.required_share)}",
        f"required_share_complement={_fmt_fraction(result.required_share_complement)}",
        f"marginal_size={_fmt_currency(result.marginal_size)}",
        f"served={_fmt_currency(result.served)}",
        f"price_slope={_fmt_currency(result.price_slope)}",
    ]
    if result.entry_rate is not None:
        lines.append(f"entry_rate={_fmt_fraction(result.entry_rate)}")
    if result.exit_rate is not None:
        lines.append(f"exit_rate={_fmt_fraction(result.exit_rate)}")
    if "fig2" in cfg.io:
        out = Path(cfg.io["fig2"])
        _write_atomic(out, _fig2_csv(cfg, cfg.t))
        lines.append(f"wrote {out}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    demand, supply = _curve_sides(cfg)
    label = classify_regime(demand, supply, cfg.t)
    print(f"regime={label.tag}")
    print(f"margin={_fmt_fraction(label.margin)}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    flags = dict(mode=args.mode, mu=args.mu, horizon=args.horizon, dt=args.dt, fig3=args.fig3)
    cfg = load_config(args.config, {**flags, "trajectory": args.out})
    if "trajectory" not in cfg.io:
        raise UsageError("simulate needs --out <csv> (or [io] trajectory in the config)")
    from .dynamics import simulate, summarize
    traj = simulate(cfg.scenario)
    out = Path(cfg.io["trajectory"])
    _write_atomic(out, _trajectory_csv(traj))
    if "fig3" in cfg.io:
        _write_atomic(Path(cfg.io["fig3"]), _fig3_csv(traj))
    s = summarize(traj)
    print(
        f"simulate: {len(traj)} points, final price {_fmt_currency(s.final_price)}, "
        f"drift {s.price_drift_pct_per_year:.4f} %/yr, "
        f"share gain {s.share_gain_pp_per_year:.4f} pp/yr, "
        f"floor_reached={s.floor_reached}, wrote {out}"
    )
    return EXIT_OK


def _parse_vary(raw: str) -> tuple[str, float, float, float]:
    try:
        name, rhs = raw.split("=", 1)
        lo, hi, step = (float(x) for x in rhs.split(":"))
    except ValueError:
        raise UsageError(f"--vary must look like name=lo:hi:step, got {raw!r}") from None
    return name.strip(), lo, hi, step


def _cmd_sweep(args: argparse.Namespace) -> int:
    name, lo, hi, step = _parse_vary(args.vary)
    cfg = load_config(args.config, {"sweep": args.out})
    if "sweep" not in cfg.io:
        raise UsageError("sweep needs --out <csv> (or [io] sweep in the config)")
    from .dynamics import sweep
    rows = sweep(cfg.scenario, name, lo, hi, step)
    header = "final_price,price_drift_pct_per_year,share_gain_pp_per_year,total_exits,floor_reached,error"
    lines = [f"{name},{header}"]
    for row in rows:
        if row.error is None:
            lines.append(
                f"{row.value:.6g},{_fmt_currency(row.final_price)},"
                f"{row.price_drift_pct_per_year:.4f},{row.share_gain_pp_per_year:.4f},"
                f"{_fmt_fraction(row.total_exits)},{row.floor_reached},"
            )
        else:
            lines.append(f"{row.value:.6g},,,,,,{row.error}")
    out = Path(cfg.io["sweep"])
    _write_atomic(out, "\n".join(lines) + "\n")
    ok = sum(1 for r in rows if r.error is None)
    print(f"sweep: {len(rows)} points ({ok} ok), wrote {out}")
    return EXIT_OK


_CALIBRATE_TEMPLATE = """\
# consultmarket scenario config
# estimated from {series}: psi, alpha, r_m{g0_note}
# remaining market constants and anchors are scenario assumptions; edit to taste.

[market]
{market}
[anchors]
served0 = {anchors.served0:g}
price0 = {anchors.price0:g}

[dynamics]
mode = capacity
horizon = 10
dt = 0.01
t = 0
"""


def _cmd_calibrate(args: argparse.Namespace) -> int:
    series = load_series(args.series)
    rates = estimate_rates(series)._asdict()
    # the estimated rates, and the German scenario's values for the rest
    assumed = german_transport_params()
    market = [
        f"{key} = {rates[key]:.9g}" if key in rates else f"{key} = {getattr(assumed, key):g}"
        for key in MARKET_KEYS[:-2]
    ]
    g0_note, lines = "", []
    if args.sizes is not None:
        fit = fit_zipf(load_size_histogram(args.sizes))
        market.append(f"g0 = {fit.g0:.9g}")
        g0_note = "; g0 from the size histogram"
        lines.append(f"zipf fit: g0={fit.g0:.6g}, log residual={fit.residual:.3g}")
    text = _CALIBRATE_TEMPLATE.format(
        series=args.series,
        g0_note=g0_note,
        market="".join(line + "\n" for line in market),
        anchors=german_transport_anchors(),
    )
    out = Path(args.out)
    _write_atomic(out, text)
    load_config(out)  # fail fast if the emitted config would not round-trip
    lines.append(f"calibrate: psi={rates['psi']:.6g}, alpha={rates['alpha']:.6g}, r_m={rates['r_m']:.6g}, wrote {out}")
    print("\n".join(lines))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="consultmarket", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="estimate rates from a yearly series CSV")
    cal.add_argument("--series", required=True, help="yearly series CSV")
    cal.add_argument("--sizes", default=None, help="optional provider size histogram CSV")
    cal.add_argument("--out", required=True, help="config file to write")
    cal.set_defaults(handler=_cmd_calibrate)

    sol = sub.add_parser("solve", help="clear the market at one instant")
    sol.add_argument("--config", required=True)
    sol.add_argument("--t", type=float, default=None, help="evaluation time, years")
    sol.add_argument("--fig2", default=None, help="write the price/demand/supply curve CSV here")
    sol.set_defaults(handler=_cmd_solve)

    cla = sub.add_parser("classify", help="print the market regime")
    cla.add_argument("--config", required=True)
    cla.set_defaults(handler=_cmd_classify)

    sim = sub.add_parser("simulate", help="integrate the market path")
    sim.add_argument("--config", required=True)
    sim.add_argument("--mode", choices=("capacity", "literal"), default=None)
    sim.add_argument("--mu", type=float, default=None, help="provider growth rate override")
    sim.add_argument("--horizon", type=float, default=None)
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--out", default=None, help="trajectory CSV path")
    sim.add_argument("--fig3", default=None, help="write the condensed path CSV here")
    sim.set_defaults(handler=_cmd_simulate)

    swe = sub.add_parser("sweep", help="re-run across one parameter's grid")
    swe.add_argument("--config", required=True)
    swe.add_argument("--vary", required=True, help="name=lo:hi:step")
    swe.add_argument("--out", default=None, help="sweep table CSV path")
    swe.set_defaults(handler=_cmd_sweep)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except BrokenPipeError:
        # the reader closed stdout (``| head``), which is its choice, not a
        # data error: every requested file is written before the first line
        # is printed.  Stdout goes to devnull so the exit flush stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConsultMarketError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
