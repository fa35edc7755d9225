"""Workload definitions and their seeded input generators.

Each workload is one copuladyn subcommand on one generated input. The sizes
are fixed; only the random draws depend on the seed, so every seed gives the
same row count and nearly the same amount of work. ``BENCHMARK.json`` holds
the one-line reason for each workload; the longer one is here.

Why each workload exists (which layer it stresses, which it leaves alone):

- ``ticks-async``: ``taildep`` on an asynchronous tick tape. Ingest does
  almost all the work and the dense union-of-timestamps price panel drives
  peak RSS; there is no Gaussian work, so it is the no-change control for
  the Gaussian layer.
- ``wide-diff``: ``diff`` on a synchronous factor panel with heterogeneous
  loadings. Hundreds of distinct correlations reach the Gaussian grid path,
  so the Gaussian baseline dominates and ingest comes second.
- ``dynamics-windows``: ``dynamics`` with many windows. The Gaussian layer is
  reached through the tail path (one copula CDF per distinct correlation,
  alpha and window), the window thread pool runs, and many files are written.
- ``synth-write``: ``synth`` with a large panel. No ingest and no Gaussian
  work; only sampling and the large-CSV write path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from copuladyn.ingest import ReturnMatrix, TradingCalendar
from copuladyn.synth import synthetic_timestamps, write_price_csv
from copuladyn.taildep import partition_windows, pearson_matrix

START_DATE = "2024-01-02"
SESSION_SECONDS = 6 * 3600 + 30 * 60
PER_SESSION = SESSION_SECONDS // 1800  # half-hour returns per session
ALPHA_COUNT = 4  # the CLI's default alpha list

# asynchronous tick tape
TICK_SYMBOLS = 30
TICK_SESSIONS = 12
TICK_MEAN_PER_SESSION = 500  # in-session ticks per symbol and session, on average
TICK_OFF_SESSION_ROWS = 4  # pre-open and as many post-close rows per session
TICK_MISSED_OPEN_EVERY = 4  # every 4th session one symbol misses its opening print

# synchronous factor panels
LOADING_RANGE = (0.1, 0.85)
DIFF_ASSETS = 30
DIFF_LENGTH = 1300  # 100 sessions of 13 half-hour returns
DYN_ASSETS = 18
DYN_WINDOW_DAYS = 10
DYN_WINDOWS = 20

# worker threads for every analysis command, never more than the machine has
THREADS = min(2, os.cpu_count() or 1)

# synth command
SYNTH_ASSETS = 100
SYNTH_LENGTH = 6500
SYNTH_CORR = 0.3


@dataclass(frozen=True)
class Workload:
    """One CLI command on one input, plus what the output checker expects."""

    name: str
    command: str
    rows: int  # CSV data rows the command reads (synth: writes)
    windows: int = 0  # dynamics only


def _factor_rows(assets: int, length: int) -> int:
    # write_price_csv writes every session's opening endpoint plus one row per return
    sessions = -(-length // PER_SESSION)
    return assets * (length + sessions)


def _tick_rows() -> int:
    session_rows = _tick_counts().sum() + TICK_SYMBOLS + 2 * TICK_OFF_SESSION_ROWS
    missed = len(range(0, TICK_SESSIONS, TICK_MISSED_OPEN_EVERY))
    return TICK_SESSIONS * session_rows - missed


def _tick_counts() -> np.ndarray:
    # fixed, unequal quoting intensities: 0.5x to 1.5x the mean
    scale = 0.5 + np.arange(TICK_SYMBOLS) / (TICK_SYMBOLS - 1)
    return np.rint(TICK_MEAN_PER_SESSION * scale).astype(int)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ticks-async", "taildep", _tick_rows()),
        Workload("wide-diff", "diff", _factor_rows(DIFF_ASSETS, DIFF_LENGTH)),
        Workload(
            "dynamics-windows",
            "dynamics",
            _factor_rows(DYN_ASSETS, DYN_WINDOWS * DYN_WINDOW_DAYS * PER_SESSION),
            windows=DYN_WINDOWS,
        ),
        Workload("synth-write", "synth", _factor_rows(SYNTH_ASSETS, SYNTH_LENGTH)),
    )
}


def _trading_days(count: int) -> np.ndarray:
    first = np.busday_offset(np.datetime64(START_DATE, "D"), 0, roll="forward")
    return np.busday_offset(first, np.arange(count))


def write_tick_tape(path: Path, seed: int) -> dict:
    """Asynchronous tick tape: every symbol quotes at its own irregular seconds.

    Log prices follow one market factor (sampled every second, loadings 0.3 to
    1.2) plus an idiosyncratic random walk sampled at the symbol's own ticks.
    Each session also gets pre-open and post-close rows, which ingest must
    exclude, and every ``TICK_MISSED_OPEN_EVERY``-th session one symbol lacks
    its 09:30:00 opening print, so that session's first return is dropped.
    Returns the rows, symbols and union-of-timestamps count produced.
    """
    rng = np.random.default_rng(seed)
    counts = _tick_counts()
    betas = np.linspace(0.3, 1.2, TICK_SYMBOLS)
    vol = 5e-5  # per-second log-price volatility, about 0.2% per half hour
    open_s = np.timedelta64(9 * 3600 + 30 * 60, "s")
    days = _trading_days(TICK_SESSIONS).astype("datetime64[s]")
    log_p0 = np.log(20.0 + 180.0 * rng.random(TICK_SYMBOLS))
    idio_level = np.zeros(TICK_SYMBOLS)
    factor_level = 0.0

    stamps, symbols, prices = [], [], []
    for d, day in enumerate(days):
        factor = factor_level + np.cumsum(vol * rng.standard_normal(SESSION_SECONDS + 1))
        factor_level = factor[-1]
        skip = int(rng.integers(TICK_SYMBOLS)) if d % TICK_MISSED_OPEN_EVERY == 0 else -1
        for k in range(TICK_SYMBOLS):
            secs = np.sort(rng.choice(np.arange(1, SESSION_SECONDS), counts[k], replace=False))
            if k != skip:
                secs = np.concatenate(([0], secs))
            steps = np.diff(secs, prepend=-1)  # seconds since the previous tick, >= 1
            idio = idio_level[k] + np.cumsum(vol * np.sqrt(steps) * rng.standard_normal(secs.size))
            idio_level[k] = idio[-1]
            stamps.append(day + open_s + secs.astype("timedelta64[s]"))
            symbols.append(np.full(secs.size, k))
            prices.append(np.exp(log_p0[k] + betas[k] * factor[secs] + idio))
        # off-session rows: before 09:30 and after 16:00, distinct seconds per row
        pre = rng.choice(np.arange(8 * 3600, 9 * 3600 + 30 * 60), TICK_OFF_SESSION_ROWS, replace=False)
        post = rng.choice(np.arange(16 * 3600 + 1, 18 * 3600), TICK_OFF_SESSION_ROWS, replace=False)
        off = np.concatenate((pre, post)).astype("timedelta64[s]")
        stamps.append(day + off)
        symbols.append(rng.integers(TICK_SYMBOLS, size=off.size))
        prices.append(np.exp(log_p0[rng.integers(TICK_SYMBOLS, size=off.size)]))

    ts = np.concatenate(stamps)
    sym = np.concatenate(symbols)
    px = np.concatenate(prices)
    # sorted by (timestamp, symbol), so each symbol's rows are strictly increasing
    order = np.lexsort((sym, ts))
    ts, sym, px = ts[order], sym[order], px[order]
    if np.any((np.diff(ts) == np.timedelta64(0, "s")) & (np.diff(sym) == 0)):
        raise AssertionError("tick generator produced a duplicate (timestamp, symbol)")
    text = np.datetime_as_string(ts, unit="s").tolist()
    names = [f"T{k:03d}" for k in range(TICK_SYMBOLS)]
    lines = ["timestamp,symbol,price"]
    lines += [f"{t},{names[s]},{p!r}" for t, s, p in zip(text, sym.tolist(), px.tolist())]
    path.write_text("\n".join(lines) + "\n")

    in_session = (ts - ts.astype("datetime64[D]")).astype(np.int64)
    keep = (in_session >= 9 * 3600 + 30 * 60) & (in_session <= 16 * 3600)
    return {
        "rows": int(ts.size),
        "symbols": TICK_SYMBOLS,
        "sessions": TICK_SESSIONS,
        "union_timestamps": int(np.unique(ts[keep]).size),
        "off_session_rows": int(np.count_nonzero(~keep)),
    }


def factor_returns(seed: int, assets: int, length: int) -> ReturnMatrix:
    """One-factor Gaussian panel with loadings spread evenly over LOADING_RANGE.

    Pair (i, j) has population correlation a_i * a_j, so a K-asset panel has
    up to K(K-1)/2 distinct correlations, unlike ``synth``'s equicorrelated
    panels.
    """
    rng = np.random.default_rng(seed)
    loadings = np.linspace(*LOADING_RANGE, assets)
    common = rng.standard_normal(length)
    noise = rng.standard_normal((assets, length))
    data = loadings[:, None] * common[None, :] + np.sqrt(1.0 - loadings**2)[:, None] * noise
    stamps, dates = synthetic_timestamps(TradingCalendar(), START_DATE, length, 30)
    return ReturnMatrix(
        asset_ids=[f"F{k:03d}" for k in range(assets)],
        interval=30,
        returns=data,
        timestamps=stamps,
        session_dates=dates,
    )


def _distinct_correlations(matrix: ReturnMatrix) -> int:
    corr = pearson_matrix(matrix).values
    return int(np.unique(np.round(corr[np.triu_indices(corr.shape[0], 1)], 3)).size)


def write_factor_panel(path: Path, seed: int, assets: int, length: int, window_days=None) -> dict:
    """Write a factor panel through ``copuladyn.synth.write_price_csv``.

    Records the distinct 3-decimal correlations of the generated returns,
    which set the Gaussian cost: per panel for ``diff``, summed over windows
    for ``dynamics``.
    """
    matrix = factor_returns(seed, assets, length)
    write_price_csv(matrix, TradingCalendar(), path)
    info = {"rows": path.read_bytes().count(b"\n") - 1, "assets": assets, "returns": length,
            "distinct_corr_3dp": _distinct_correlations(matrix)}
    if window_days:
        per_window = [_distinct_correlations(w) for w in partition_windows(matrix, window_days)]
        info["distinct_corr_3dp_windows_sum"] = int(sum(per_window))
    return info


def prepare(workload: Workload, seed: int, work: Path) -> tuple[list, dict]:
    """Generate the workload's input under ``work``; return (CLI args, input facts).

    The CLI args exclude ``--out``, which the caller adds per run.
    """
    prices = work / "prices.csv"
    if workload.name == "ticks-async":
        info = write_tick_tape(prices, seed)
        args = ["taildep", "--input", str(prices), "--grid", "20", "--threads", str(THREADS)]
    elif workload.name == "wide-diff":
        info = write_factor_panel(prices, seed, DIFF_ASSETS, DIFF_LENGTH)
        args = ["diff", "--input", str(prices), "--grid", "10", "--threads", str(THREADS)]
    elif workload.name == "dynamics-windows":
        length = DYN_WINDOWS * DYN_WINDOW_DAYS * PER_SESSION
        info = write_factor_panel(prices, seed, DYN_ASSETS, length, DYN_WINDOW_DAYS)
        args = ["dynamics", "--input", str(prices), "--window-days", str(DYN_WINDOW_DAYS),
                "--threads", str(THREADS)]
    else:
        info = {"rows": workload.rows, "assets": SYNTH_ASSETS, "returns": SYNTH_LENGTH}
        args = ["synth", "--kind", "gaussian", "--corr", str(SYNTH_CORR), "--assets",
                str(SYNTH_ASSETS), "--length", str(SYNTH_LENGTH), "--seed", str(seed)]
    if info["rows"] != workload.rows:
        raise AssertionError(f"{workload.name}: generated {info['rows']} rows, expected {workload.rows}")
    return args, info
