"""Command line entry point.

Subcommands: ``copula`` (average pairwise grid), ``diff`` (empirical minus
Gaussian map), ``taildep`` (tail curve), ``dynamics`` (rolling windows plus
the correlation/tail relation dataset), ``synth`` (synthetic price CSV).
Every run writes a JSON manifest recording the resolved config, SHA-256
digests of the inputs, and the library version; reruns with identical config
and inputs are byte-identical. Exit codes: 0 success, 2 usage error, 3 input
parse error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .copula import average_pairwise_density, write_grid_csv
from .gaussian import difference_map, write_difference_csv
from .ingest import TradingCalendar, compute_returns, load_calendar, load_prices
from .synth import SynthSpec, sample_panel, write_price_csv
from .taildep import (
    UPPER_TAIL_CONVENTIONS,
    pearson_matrix,
    tail_curve,
    windowed_reports,
    write_relation_csv,
    write_tail_curve_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

_DT_CHOICES = (30, 60, 120, 240)
_DEFAULT_ALPHAS = (0.02, 0.04, 0.1, 0.25)
_GENERATOR_NAME = "numpy default_rng (PCG64)"
_CALENDAR_HELP = ("calendar config file: open=HH:MM and close=HH:MM in whole minutes with no "
                  "UTC offset, then holiday dates (default 09:30-16:00 weekdays)")


@dataclass
class RunConfig:
    """Resolved parameters of one CLI run."""

    command: str
    input_path: str | None = None
    calendar_path: str | None = None
    dt: int = 30
    grid: int = 50
    alphas: tuple = _DEFAULT_ALPHAS
    window_days: int = 10
    out_dir: str = "."
    seed: int | None = None
    upper_tail_convention: str = "literal"
    permille: bool = False
    kind: str = "gaussian"
    corr: float = 0.5
    assets: int = 10
    length: int = 1000
    start_date: str = "2007-01-02"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copuladyn",
        description="Empirical pairwise copulas, Gaussian baselines, and tail dependence dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="price CSV (timestamp,symbol,price)")
        p.add_argument("--calendar", help=_CALENDAR_HELP)
        p.add_argument("--dt", type=int, choices=_DT_CHOICES, default=30,
                       help="return interval in minutes")
        p.add_argument("--grid", type=int, default=50, help="quantile grid resolution (>= 2)")
        p.add_argument("--alpha", type=float, action="append", dest="alphas", metavar="ALPHA",
                       help="tail level in (0, 0.5]; repeatable (default 0.02 0.04 0.1 0.25)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=0,
                       help="accepted for compatibility; has no effect (windows run in order)")
        p.add_argument("--upper-tail-convention", choices=UPPER_TAIL_CONVENTIONS,
                       default="literal", help="definition used for lambda_upper")

    p_cop = sub.add_parser("copula", help="average pairwise copula grid CSV")
    common(p_cop)
    p_cop.add_argument("--permille", action="store_true",
                       help="append a density_permille column")

    p_diff = sub.add_parser("diff", help="empirical minus Gaussian difference map CSV")
    common(p_diff)

    p_tail = sub.add_parser("taildep", help="tail dependence curve CSV")
    common(p_tail)

    p_dyn = sub.add_parser("dynamics", help="rolling-window grids and relation CSV")
    common(p_dyn)
    p_dyn.add_argument("--window-days", type=int, default=10,
                       help="trading days per window (default 10)")

    p_syn = sub.add_parser("synth", help="write a synthetic price CSV")
    p_syn.add_argument("--kind", choices=("gaussian", "independent", "comonotone", "countermonotone"),
                       default="gaussian")
    p_syn.add_argument("--corr", type=float, default=0.5, help="equicorrelation for kind=gaussian")
    p_syn.add_argument("--assets", type=int, default=10)
    p_syn.add_argument("--length", type=int, default=1000, help="returns per asset")
    p_syn.add_argument("--seed", type=int, required=True)
    p_syn.add_argument("--start-date", default="2007-01-02", help="first trading day (ISO date)")
    p_syn.add_argument("--calendar", help=_CALENDAR_HELP)
    p_syn.add_argument("--dt", type=int, choices=_DT_CHOICES, default=30)
    p_syn.add_argument("--out", required=True, help="output directory")

    return parser


def _config_from_args(args, parser) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.calendar_path = getattr(args, "calendar", None)
    cfg.out_dir = args.out
    cfg.dt = getattr(args, "dt", 30)
    if args.command == "synth":
        if args.assets < 2:
            parser.error("--assets must be at least 2")
        if args.length < 1:
            parser.error("--length must be at least 1")
        if args.kind == "countermonotone" and args.assets != 2:
            parser.error("--kind countermonotone needs --assets 2")
        try:
            SynthSpec(args.kind, args.assets, args.length, args.seed, args.corr)
        except ValueError as exc:  # the checks above leave only the correlation to fail
            parser.error(f"--corr {args.corr}: {exc}")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        try:
            start = np.datetime64(args.start_date, "D")
        except ValueError:
            start = np.datetime64("NaT")
        if np.isnat(start):  # numpy also parses "NaT" and "" as not-a-time
            parser.error(f"--start-date {args.start_date!r} is not an ISO date")
        cfg.seed = args.seed
        cfg.kind = args.kind
        cfg.corr = args.corr
        cfg.assets = args.assets
        cfg.length = args.length
        cfg.start_date = args.start_date
        return cfg
    cfg.input_path = args.input
    cfg.grid = args.grid
    if cfg.grid < 2:
        parser.error("--grid must be at least 2")
    alphas = tuple(args.alphas) if args.alphas else _DEFAULT_ALPHAS
    for a in alphas:
        if not 0.0 < a <= 0.5:
            parser.error(f"--alpha {a} outside (0, 0.5]")
    cfg.alphas = alphas
    cfg.upper_tail_convention = args.upper_tail_convention
    cfg.permille = getattr(args, "permille", False)
    cfg.window_days = getattr(args, "window_days", 10)
    if cfg.window_days < 1:
        parser.error("--window-days must be at least 1")
    return cfg


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


class _Run:
    """Tracks files written by one command so failures leave no partial output."""

    def __init__(self, out_dir: str):
        self.out_dir = Path(out_dir)
        self.written: list[Path] = []

    def path(self, *parts) -> Path:
        target = self.out_dir.joinpath(*parts)
        target.parent.mkdir(parents=True, exist_ok=True)
        self.written.append(target)
        return target

    def cleanup(self) -> None:
        for target in self.written:
            try:
                target.unlink()
            except OSError:
                pass

    def manifest(self, cfg: RunConfig, inputs: list, extra: dict | None = None) -> None:
        payload = {
            "command": cfg.command,
            "version": __version__,
            "config": {
                "calendar": cfg.calendar_path or "default (09:30-16:00, weekdays)",
                "dt_minutes": cfg.dt,
            },
            "inputs": {name: _sha256(name) for name in inputs},
            "outputs": sorted(str(p.relative_to(self.out_dir)) for p in self.written),
        }
        if cfg.command == "synth":
            payload["config"].update(
                kind=cfg.kind,
                corr=cfg.corr,
                assets=cfg.assets,
                length=cfg.length,
                seed=cfg.seed,
                start_date=cfg.start_date,
                generator=_GENERATOR_NAME,
            )
        else:
            payload["config"].update(
                input=cfg.input_path,
                grid=cfg.grid,
                alphas=list(cfg.alphas),
                upper_tail_convention=cfg.upper_tail_convention,
            )
            if cfg.command == "dynamics":
                payload["config"]["window_days"] = cfg.window_days
            if cfg.command == "copula":
                payload["config"]["permille"] = cfg.permille
        if extra:
            payload.update(extra)
        target = self.path("manifest.json")
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run(cfg: RunConfig) -> int:
    """Execute a resolved config; returns the process exit status."""
    runner = _Run(cfg.out_dir)
    try:
        calendar = load_calendar(cfg.calendar_path) if cfg.calendar_path else TradingCalendar()
        if cfg.command == "synth":
            spec = SynthSpec(
                kind=cfg.kind,
                assets=cfg.assets,
                length=cfg.length,
                seed=cfg.seed,
                correlation=cfg.corr,
            )
            panel = sample_panel(spec, calendar=calendar, start=cfg.start_date, interval=cfg.dt)
            write_price_csv(panel, calendar, runner.path("prices.csv"))
            runner.manifest(cfg, inputs=[cfg.calendar_path] if cfg.calendar_path else [])
            return EXIT_OK

        matrix = compute_returns(load_prices(cfg.input_path, calendar), cfg.dt)
        inputs = [cfg.input_path] + ([cfg.calendar_path] if cfg.calendar_path else [])

        if cfg.command == "copula":
            grid = average_pairwise_density(matrix, cfg.grid)
            write_grid_csv(grid, runner.path("grid.csv"), permille=cfg.permille)
            runner.manifest(cfg, inputs=inputs)
        elif cfg.command == "diff":
            grid = average_pairwise_density(matrix, cfg.grid)
            corr = pearson_matrix(matrix)
            diff = difference_map(grid, corr)
            write_difference_csv(diff, runner.path("difference.csv"))
            runner.manifest(cfg, inputs=inputs)
        elif cfg.command == "taildep":
            grid = average_pairwise_density(matrix, cfg.grid)
            curve = tail_curve(grid, cfg.alphas, upper_convention=cfg.upper_tail_convention)
            write_tail_curve_csv(curve, runner.path("tail_curve.csv"))
            runner.manifest(cfg, inputs=inputs)
        elif cfg.command == "dynamics":
            reports = windowed_reports(
                matrix,
                cfg.window_days,
                cfg.grid,
                cfg.alphas,
                upper_convention=cfg.upper_tail_convention,
            )
            for idx, rep in enumerate(reports, start=1):
                write_grid_csv(rep.grid, runner.path("windows", f"window_{idx:04d}.csv"))
            write_relation_csv(reports, runner.path("relation.csv"))
            runner.manifest(cfg, inputs=inputs)
        else:  # unreachable behind argparse choices
            raise AssertionError(cfg.command)
        return EXIT_OK
    except ArithmeticError as exc:
        runner.cleanup()
        print(f"copuladyn: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        # PriceDataError and CalendarError are ValueErrors; so are data-shape
        # problems like a panel shorter than one window
        runner.cleanup()
        print(f"copuladyn: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args, parser)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
