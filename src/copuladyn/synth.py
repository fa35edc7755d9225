"""Seedable synthetic return panels with known dependence structure.

All sampling goes through numpy's default_rng (PCG64); the seed fully
determines the output, which is part of the test contract. Equicorrelated
Gaussian panels use a single common factor plus idiosyncratic noise for c >= 0
(exact population correlation c between every pair); mildly negative
equicorrelation falls back to a Cholesky factor of the equicorrelation matrix.

``write_price_csv`` formats one session at a time. A panel of at least
``_PARALLEL_MIN_ROWS`` output rows has its sessions shared between this process
and forked worker processes, one process per CPU this process may use (so
``taskset`` limits them) and at most one per session, when that makes two or
more and no other thread runs. The workers send UTF-8 bytes back over pipes,
and a path gets them unchanged; the bytes it writes do not depend on the number
of workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._pool import ordered, usable_cpus as _usable_cpus, worker_count
from .copula import _rows_text, _write_texts
from .ingest import _HEADER, ReturnMatrix, TradingCalendar

__all__ = [
    "SynthSpec",
    "sample_panel",
    "synthetic_timestamps",
    "write_price_csv",
]

_KINDS = ("gaussian", "independent", "comonotone", "countermonotone")
_DEFAULT_START = "2007-01-02"
# output rows from which write_price_csv formats in worker processes; on 2 vCPUs
# the pool won steadily only from about 210,000 rows, and lost below 105,000
_PARALLEL_MIN_ROWS = 200_000


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic panel.

    ``kind`` is one of gaussian (equicorrelated at ``correlation``),
    independent, comonotone, or countermonotone; ``assets``/``length`` give the
    panel shape; ``seed`` freezes the stream.
    """

    kind: str
    assets: int
    length: int
    seed: int
    correlation: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.assets < 2:
            raise ValueError("need at least 2 assets")
        if self.length < 1:
            raise ValueError("length must be at least 1")
        floor = -1.0 / (self.assets - 1)  # the most negative feasible equicorrelation
        if self.kind == "gaussian" and not floor <= self.correlation <= 1.0:
            raise ValueError(
                f"equicorrelation {self.correlation} infeasible for K={self.assets} "
                f"(range [{floor:.6f}, 1])"
            )
        if self.kind == "countermonotone" and self.assets != 2:
            raise ValueError("countermonotone panels require exactly 2 assets")


def synthetic_timestamps(calendar: TradingCalendar, start, count: int, interval: int):
    """Interval-end timestamps and session dates for ``count`` synthetic returns."""
    per_session = calendar.session_minutes // interval
    if per_session < 1:
        raise ValueError("interval exceeds the trading session")
    n_days = -(-count // per_session)
    days = calendar.trading_days(start, n_days)
    step = np.timedelta64(interval * 60, "s")
    offsets = calendar.open_offset + np.arange(1, per_session + 1) * step
    stamps = (days.astype("datetime64[s]")[:, None] + offsets[None, :]).ravel()[:count]
    dates = np.repeat(days, per_session)[:count]
    return stamps, dates


def sample_panel(
    spec: SynthSpec,
    calendar: TradingCalendar | None = None,
    start=_DEFAULT_START,
    interval: int = 30,
) -> ReturnMatrix:
    """Draw a K x T panel per ``spec`` with synthetic session timestamps.

    For gaussian kind, every distinct pair has population correlation
    ``spec.correlation``; feasibility requires c >= -1/(K-1). Deterministic
    for a fixed spec.
    """
    calendar = calendar or TradingCalendar()
    rng = np.random.default_rng(spec.seed)
    k, t = spec.assets, spec.length
    if spec.kind == "gaussian":
        c = spec.correlation
        if c >= 0.0:
            common = rng.standard_normal(t)
            data = rng.standard_normal((k, t))
            data *= math.sqrt(1.0 - c)
            data += math.sqrt(c) * common
        else:
            target = np.full((k, k), c)
            np.fill_diagonal(target, 1.0)
            factor = np.linalg.cholesky(target)
            data = factor @ rng.standard_normal((k, t))
    elif spec.kind == "independent":
        data = rng.standard_normal((k, t))
    elif spec.kind == "comonotone":
        base = rng.standard_normal(t)
        scales = np.arange(1, k + 1, dtype=float)
        data = scales[:, None] * base[None, :]
    else:  # countermonotone, k == 2
        base = rng.standard_normal(t)
        data = np.vstack([base, -base])
    stamps, dates = synthetic_timestamps(calendar, start, t, interval)
    return ReturnMatrix(
        asset_ids=[f"SYN{n:03d}" for n in range(k)],
        interval=interval,
        returns=data,
        timestamps=stamps,
        session_dates=dates,
    )


def write_price_csv(
    matrix: ReturnMatrix,
    calendar: TradingCalendar,
    destination,
    base_price: float = 100.0,
    scale: float = 1e-3,
) -> None:
    """Export a return panel as an ingestible price CSV.

    Price paths start at ``base_price`` (offset per asset) and compound
    ``1 + scale * r`` per interval; ``scale`` keeps synthetic unit-variance
    returns small enough that prices stay positive. Prices carry over sessions
    unchanged, so re-ingesting reproduces the scaled returns with the same
    ranks and no overnight artifacts. If the panel ends mid-session, ingestion
    extends that session with the last price carried flat (zero returns).
    Every price must come out finite and positive, as ``load_prices``
    requires; this is checked before ``destination`` is opened, so a rejected
    call leaves an existing file as it was and starts no process.

    The rows are formatted one session at a time and written in order. A
    panel of at least ``_PARALLEL_MIN_ROWS`` rows has its sessions shared
    between this process and forked worker processes, one process per usable
    CPU and at most one per session, when that makes two or more, no other
    thread runs and the platform can fork; otherwise this process formats them
    all. The bytes are the same either way.
    """
    if not (math.isfinite(base_price) and base_price > 0.0):
        raise ValueError(f"base_price must be finite and positive, got {base_price!r}")
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")
    # a NaN fails both comparisons
    if not (-math.inf < matrix.returns.min() and matrix.returns.max() < math.inf):
        raise ValueError("returns must be finite")
    days, counts = np.unique(matrix.session_dates.astype("datetime64[D]"), return_counts=True)
    opens = days.astype("datetime64[s]") + calendar.open_offset
    # session s covers path columns cols[s] to cols[s + 1]: its endpoints
    cols = np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))
    step = np.timedelta64(matrix.interval * 60, "s")

    k = matrix.n_assets
    paths = np.empty((k, matrix.n_observations + 1))
    factors = paths[:, 1:]  # 1 + scale * r, then its running product, built in place
    with np.errstate(over="ignore"):  # a price past the float range is refused below
        starts = base_price * (1.0 + np.arange(k, dtype=float) / 10.0)
        paths[:, 0] = starts
        np.multiply(matrix.returns, scale, out=factors)
        factors += 1.0
        if factors.min() <= 0.0:
            raise ValueError("scale too large: price path would cross zero")
        np.cumprod(factors, axis=1, out=factors)
        factors *= starts[:, None]
    if not (paths.min() > 0.0 and paths.max() < math.inf):
        raise ValueError("price path overflows or underflows: a price would be 0 or inf")

    header = ",".join(_HEADER) + "\n"
    inputs = (paths, list(matrix.asset_ids), opens, cols, step)
    workers = _worker_count((matrix.n_observations + days.size) * k, days.size)

    def work(session):  # forked workers see the price paths through this closure
        return _format_session(inputs, session).encode()

    with ordered(work, range(days.size), workers) as results:
        if isinstance(destination, (str, bytes, os.PathLike)):
            with open(destination, "wb") as fh:
                fh.writelines(chain([header.encode()], results))
        else:
            _write_texts(destination, chain([header], map(bytes.decode, results)))


def _format_session(inputs, session: int) -> str:
    """The CSV rows of one session, each ending in a newline.

    Session s has one endpoint per path column from ``cols[s]`` to
    ``cols[s + 1]``, the e-th stamped ``opens[s] + e * step``; rows go endpoint
    by endpoint, one per asset.
    """
    paths, names, opens, cols, step = inputs
    first, last = cols[session], cols[session + 1]
    stamps = (opens[session] + np.arange(last - first + 1) * step).astype(str).tolist()
    # each price's repr is dropped as soon as its row is joined
    prices = map(repr, paths[:, first:last + 1].T.ravel().tolist())
    return _rows_text([[iso for iso in stamps for _ in names], names * len(stamps), prices])


def _worker_count(rows: int, n_sessions: int) -> int:
    """Processes, this one included, for ``n_sessions`` sessions of ``rows`` rows in all; 0
    to format in this process alone."""
    return worker_count(rows, n_sessions, _PARALLEL_MIN_ROWS, _usable_cpus())
