"""Seedable synthetic return panels with known dependence structure.

All sampling goes through numpy's default_rng (PCG64); the seed fully
determines the output, which is part of the test contract. Equicorrelated
Gaussian panels use a single common factor plus idiosyncratic noise for c >= 0
(exact population correlation c between every pair); mildly negative
equicorrelation falls back to a Cholesky factor of the equicorrelation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copula import _reprs, _write_csv
from .ingest import ReturnMatrix, TradingCalendar

__all__ = [
    "SynthSpec",
    "sample_panel",
    "synthetic_timestamps",
    "write_price_csv",
]

_KINDS = ("gaussian", "independent", "comonotone", "countermonotone")
_DEFAULT_START = "2007-01-02"


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
    ``scale`` is checked before ``destination`` is opened, so a rejected call
    leaves an existing file as it was; the rows are then streamed.
    """
    per_session = {}
    for d in matrix.session_dates:
        key = d.item()
        per_session[key] = per_session.get(key, 0) + 1
    open_delta = calendar.open_offset
    step = np.timedelta64(matrix.interval * 60, "s")

    k = matrix.n_assets
    starts = base_price * (1.0 + np.arange(k, dtype=float) / 10.0)
    paths = np.empty((k, matrix.n_observations + 1))
    paths[:, 0] = starts
    factors = paths[:, 1:]  # 1 + scale * r, then its running product, built in place
    np.multiply(matrix.returns, scale, out=factors)
    factors += 1.0
    if np.any(factors <= 0.0):
        raise ValueError("scale too large: price path would cross zero")
    np.cumprod(factors, axis=1, out=factors)
    factors *= starts[:, None]
    names = list(matrix.asset_ids)

    def sessions():
        col = 0
        for day in sorted(per_session):
            n_cols = per_session[day]
            day64 = np.datetime64(day, "D").astype("datetime64[s]")
            endpoints = day64 + open_delta + np.arange(n_cols + 1) * step
            # endpoint e of this session is path column col + e; rows go endpoint by endpoint
            stamps = [iso for iso in endpoints.astype(str).tolist() for _ in names]
            yield stamps, names * (n_cols + 1), _reprs(paths[:, col : col + n_cols + 1].T)
            col += n_cols

    _write_csv(destination, "timestamp,symbol,price", sessions())
