"""Command line entry point.

Subcommands: ``copula`` (average pairwise grid), ``diff`` (empirical minus
Gaussian map), ``taildep`` (tail curve), ``dynamics`` (rolling windows plus
the correlation/tail relation dataset), ``synth`` (synthetic price CSV).
Every run writes a JSON manifest recording the resolved config, SHA-256
digests of the inputs, and the library version; reruns with identical config
and inputs are byte-identical. Exit codes: 0 success, 2 usage error, 3 input
or output error (the message names the side; an ``--input`` or ``--calendar``
that is not a regular file is an input error) or out of memory, 4 numerical
failure.

The argument parser is the only description of a command's options. The
manifest's ``config`` records every option of the command except ``--out``
and ``--threads``, under its argparse name, with ``dt`` recorded as
``dt_minutes`` and a missing ``--calendar`` as the default calendar's text;
``synth`` also records its random generator.
Importing this module calls ``gc.freeze()``: no collection or exit walks its imports' heap.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .copula import average_pairwise_density, write_grid_csv, write_grid_csvs
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

# the imports' objects live until exit, so neither later collections nor shutdown walk them
gc.freeze()

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

_DT_CHOICES = (30, 60, 120, 240)
_DEFAULT_ALPHAS = (0.02, 0.04, 0.1, 0.25)
_GENERATOR_NAME = "numpy default_rng (PCG64)"
_DEFAULT_CALENDAR = "default (09:30-16:00, weekdays)"
_CALENDAR_HELP = ("calendar config file: open=HH:MM and close=HH:MM in whole minutes with no "
                  "UTC offset, then holiday dates (default 09:30-16:00 weekdays)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copuladyn",
        description="Empirical pairwise copulas, Gaussian baselines, and tail dependence dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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


def _check(args, parser) -> None:
    """Exit 2 through ``parser.error`` on a value the parser let through; the
    analysis commands get their default alphas here."""
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
        return
    if args.grid < 2:
        parser.error("--grid must be at least 2")
    args.alphas = args.alphas or list(_DEFAULT_ALPHAS)
    for a in args.alphas:
        if not 0.0 < a <= 0.5:
            parser.error(f"--alpha {a} outside (0, 0.5]")
    if getattr(args, "window_days", 1) < 1:
        parser.error("--window-days must be at least 1")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _manifest(args, digests: dict, out_dir: Path, written: list) -> str:
    """The manifest of a run that hashed its inputs into ``digests`` and wrote ``written``."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "out", "threads", "dt", "calendar")}
    config.update(dt_minutes=args.dt, calendar=args.calendar or _DEFAULT_CALENDAR)
    if args.command == "synth":
        config["generator"] = _GENERATOR_NAME
    payload = {
        "command": args.command,
        "version": __version__,
        "config": config,
        "inputs": digests,
        "outputs": sorted(str(p.relative_to(out_dir)) for p in written),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run(args) -> int:
    """Execute one parsed and checked command; returns the process exit status.

    On failure every file the run has written is removed, then every directory
    it made that is left empty.
    """
    out_dir = Path(args.out)
    written: list[Path] = []
    made: list[Path] = []  # in the order made, so each parent before its children

    def path(*parts) -> Path:
        target = out_dir.joinpath(*parts)
        made.extend(reversed([d for d in target.parents if not d.exists()]))
        target.parent.mkdir(parents=True, exist_ok=True)
        written.append(target)
        return target

    side = "input"  # what an OSError is worded as: reading the inputs, then writing
    try:
        # before any read: a FIFO read to its end would block the digest that opens it again
        for flag in ("--calendar", "--input"):
            name = getattr(args, flag[2:], None)
            if name and not stat.S_ISREG(os.stat(name).st_mode):
                raise ValueError(f"{flag} {name} is not a regular file")
        calendar = load_calendar(args.calendar) if args.calendar else TradingCalendar()
        if args.command != "synth":
            matrix = compute_returns(load_prices(args.input, calendar, interval=args.dt), args.dt)
        digests = {name: _sha256(name)
                   for name in (getattr(args, "input", None), args.calendar) if name}
        side = "output"
        if args.command == "synth":
            spec = SynthSpec(kind=args.kind, assets=args.assets, length=args.length,
                             seed=args.seed, correlation=args.corr)
            panel = sample_panel(spec, calendar=calendar, start=args.start_date, interval=args.dt)
            write_price_csv(panel, calendar, path("prices.csv"))
        elif args.command == "dynamics":
            reports = windowed_reports(matrix, args.window_days, args.grid, args.alphas,
                                       upper_convention=args.upper_tail_convention)
            # lazily, so a failed run records (and unlinks) only the windows it reached
            write_grid_csvs((rep.grid for rep in reports), (
                path("windows", f"window_{idx:04d}.csv") for idx in range(1, len(reports) + 1)))
            write_relation_csv(reports, path("relation.csv"))
        else:
            grid = average_pairwise_density(matrix, args.grid)
            if args.command == "copula":
                write_grid_csv(grid, path("grid.csv"), permille=args.permille)
            elif args.command == "diff":
                diff = difference_map(grid, pearson_matrix(matrix))
                write_difference_csv(diff, path("difference.csv"))
            else:
                curve = tail_curve(grid, args.alphas, upper_convention=args.upper_tail_convention)
                write_tail_curve_csv(curve, path("tail_curve.csv"))
        text = _manifest(args, digests, out_dir, written)
        path("manifest.json").write_text(text, encoding="utf-8")
        return EXIT_OK
    except ArithmeticError as exc:
        failure, code = f"numerical failure: {exc}", EXIT_NUMERIC
    except OSError as exc:  # a synth worker's ChildProcessError included
        failure, code = f"{side} error: {exc}", EXIT_INPUT
    except MemoryError as exc:
        failure, code = f"out of memory: {exc}", EXIT_INPUT
    except ValueError as exc:
        # PriceDataError and CalendarError are ValueErrors; so are data-shape
        # problems like a panel shorter than one window
        failure, code = f"input error: {exc}", EXIT_INPUT
    for remove in [*(p.unlink for p in written), *(d.rmdir for d in reversed(made))]:
        try:
            remove()
        except OSError:
            pass
    print(f"copuladyn: {failure}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check(args, parser)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
