"""Tail dependence, correlation matrices, and rolling-window dynamics.

The lower tail coefficient at level alpha is the copula evaluated on the
diagonal, Cop(alpha, alpha): the probability that both returns sit at or below
their alpha-quantiles. The default upper coefficient transcribes the
complementary diagonal literally, 1 - Cop(1-alpha, 1-alpha), which is the
probability that at least one return exceeds its (1-alpha)-quantile; the
joint-exceedance (survival) variant 1 - 2(1-alpha) + Cop(1-alpha, 1-alpha)
ships as a clearly named alternate, selectable in reports and the CLI.

Windowed analysis cuts a return panel into non-overlapping blocks of whole
trading days and reports, per window, the average pairwise copula grid, the
empirical tail curve, the Pearson matrix with its mean off-diagonal level, and
the tail curve a Gaussian copula would imply at the measured correlations.
One function (``_reports``) builds the reports of any list of windows: it
takes each window's grid, Pearson matrix and tail curve, then the Gaussian
tails of all windows from one ``gaussian_copula_cdf`` call over the union of
their distinct rounded correlations (``_gaussian_tails``). ``window_report``,
``windowed_reports`` and ``gaussian_tail_curve`` are its one-window, whole-panel
and one-matrix cases.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .copula import (
    CopulaGrid,
    _reprs,
    _write_csv,
    average_pairwise_density,
    interpolate_cumulative,
)
from .gaussian import _distinct_correlations, gaussian_copula_cdf
from .ingest import ReturnMatrix, _distinct_sorted

__all__ = [
    "CorrelationMatrix",
    "TailCurve",
    "WindowReport",
    "lower_tail",
    "upper_tail",
    "upper_tail_survival",
    "tail_curve",
    "pearson_matrix",
    "mean_correlation",
    "gaussian_tail_curve",
    "partition_windows",
    "window_report",
    "windowed_reports",
    "write_relation_csv",
    "write_tail_curve_csv",
]

UPPER_TAIL_CONVENTIONS = ("literal", "survival")


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric K x K Pearson matrix with unit diagonal, entries in [-1, 1]."""

    values: np.ndarray
    asset_ids: list | None = None

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.array_equal(v, v.T):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(v), 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("correlation matrix diagonal must be 1")
        if np.any(np.abs(v) > 1.0 + 1e-12):
            raise ValueError("correlation entries must lie in [-1, 1]")

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class TailCurve:
    """Lower/upper tail dependence sampled at a list of alpha levels."""

    alphas: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if not (self.alphas.size == self.lower.size == self.upper.size):
            raise ValueError("tail curve arrays must share one length")


@dataclass(frozen=True)
class WindowReport:
    """Per-window summary of dependence level and tail behavior."""

    window_start: dt.date
    window_end: dt.date
    mean_correlation: float
    tail: TailCurve
    gaussian_tail: TailCurve
    sample_count: int
    grid: CopulaGrid = field(repr=False, compare=False, default=None)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")
    return alpha


def lower_tail(grid: CopulaGrid, alpha: float) -> float:
    """Cop(alpha, alpha): both series at or below their alpha-quantiles.

    Levels off the grid nodes are bilinearly interpolated.
    """
    alpha = _check_alpha(alpha)
    return interpolate_cumulative(grid, alpha, alpha)


def upper_tail(grid: CopulaGrid, alpha: float) -> float:
    """1 - Cop(1-alpha, 1-alpha): at least one series above its (1-alpha)-quantile."""
    alpha = _check_alpha(alpha)
    return 1.0 - interpolate_cumulative(grid, 1.0 - alpha, 1.0 - alpha)


def upper_tail_survival(grid: CopulaGrid, alpha: float) -> float:
    """Joint exceedance 1 - 2(1-alpha) + Cop(1-alpha, 1-alpha), clipped at 0."""
    alpha = _check_alpha(alpha)
    value = 1.0 - 2.0 * (1.0 - alpha) + interpolate_cumulative(grid, 1.0 - alpha, 1.0 - alpha)
    return max(value, 0.0)


def tail_curve(grid: CopulaGrid, alphas, upper_convention: str = "literal") -> TailCurve:
    """Evaluate lower and upper tail coefficients at each alpha."""
    if upper_convention not in UPPER_TAIL_CONVENTIONS:
        raise ValueError(f"upper_convention must be one of {UPPER_TAIL_CONVENTIONS}")
    upper_fn = upper_tail if upper_convention == "literal" else upper_tail_survival
    alpha_arr = np.asarray(list(alphas), dtype=float)
    return TailCurve(
        alphas=alpha_arr,
        lower=np.array([lower_tail(grid, a) for a in alpha_arr]),
        upper=np.array([upper_fn(grid, a) for a in alpha_arr]),
    )


def pearson_matrix(matrix: ReturnMatrix) -> CorrelationMatrix:
    """Sample Pearson correlations over the aligned return rows."""
    data = matrix.returns
    if data.shape[1] < 2:
        raise ValueError("need at least two observations per series")
    variances = data.var(axis=1)
    dead = np.flatnonzero(variances == 0.0)
    if dead.size:
        names = ", ".join(matrix.asset_ids[k] for k in dead)
        start, end = matrix.period
        raise ValueError(f"zero-variance series in sessions {start} to {end}: {names}")
    corr = np.corrcoef(data)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    np.clip(corr, -1.0, 1.0, out=corr)
    return CorrelationMatrix(values=corr, asset_ids=list(matrix.asset_ids))


def mean_correlation(corr: CorrelationMatrix) -> float:
    """Mean of the strictly-upper-triangle entries."""
    k = corr.size
    if k < 2:
        raise ValueError("need at least two assets")
    iu = np.triu_indices(k, 1)
    return float(corr.values[iu].mean())


def gaussian_tail_curve(corr: CorrelationMatrix, alphas) -> TailCurve:
    """Gaussian-implied tail curve; lower and upper coincide by symmetry.

    Each alpha's value is the mean of the Gaussian copula at (alpha, alpha) over
    the pairs, evaluated once per distinct rounded correlation.
    """
    return _gaussian_tails([_distinct_correlations(corr)], alphas)[0]


def _gaussian_tails(correlations, alphas) -> list:
    """``gaussian_tail_curve`` for each ``(distinct correlations, pair counts)`` entry.

    One ``gaussian_copula_cdf`` call covers alphas x the union of the entries'
    correlations. Each entry's columns are copied in C order, so its pair-count
    weighted sum over each alpha's row runs in the same order whatever the union.
    """
    alpha_arr = np.array([_check_alpha(a) for a in alphas], dtype=float)
    union = _distinct_sorted(np.concatenate([unique for unique, _ in correlations]))
    table = gaussian_copula_cdf(alpha_arr[:, None], alpha_arr[:, None], union)
    curves = []
    for unique, counts in correlations:
        cop = np.ascontiguousarray(table[:, np.searchsorted(union, unique)])
        values = (counts * cop).sum(axis=1) / int(counts.sum())
        curves.append(TailCurve(alphas=alpha_arr, lower=values, upper=values.copy()))
    return curves


def partition_windows(matrix: ReturnMatrix, window_days: int) -> list:
    """Cut the panel into consecutive blocks of ``window_days`` trading days.

    Windows never overlap, cover whole days, and a trailing partial window is
    dropped. Errors if the panel does not cover even one full window.
    """
    if window_days < 1:
        raise ValueError("window_days must be at least 1")
    days = matrix.session_dates
    unique_days = _distinct_sorted(days)
    n_windows = unique_days.size // window_days
    if n_windows == 0:
        raise ValueError(
            f"panel covers {unique_days.size} trading days, shorter than one "
            f"{window_days}-day window"
        )
    windows = []
    for w in range(n_windows):
        first = unique_days[w * window_days]
        last = unique_days[(w + 1) * window_days - 1]
        lo = int(np.searchsorted(days, first, side="left"))
        hi = int(np.searchsorted(days, last, side="right"))
        windows.append(
            ReturnMatrix(
                asset_ids=list(matrix.asset_ids),
                interval=matrix.interval,
                returns=matrix.returns[:, lo:hi],
                timestamps=matrix.timestamps[lo:hi],
                session_dates=days[lo:hi],
            )
        )
    return windows


def window_report(
    window: ReturnMatrix,
    resolution: int,
    alphas,
    upper_convention: str = "literal",
) -> WindowReport:
    """Assemble the per-window dependence summary.

    Builds the average pairwise grid, the empirical tail curve, the Pearson
    matrix with its mean level, and the Gaussian-implied tail curve at the
    measured correlations.
    """
    return _reports([window], resolution, alphas, upper_convention)[0]


def windowed_reports(
    matrix: ReturnMatrix,
    window_days: int,
    resolution: int,
    alphas,
    upper_convention: str = "literal",
) -> list:
    """Window reports for the whole panel, in chronological order, each equal to
    ``window_report`` on its window; the first window that fails raises its fault."""
    parts = partition_windows(matrix, window_days)
    if matrix.n_assets < 2:
        raise ValueError("need at least two assets to form pairs")
    return _reports(parts, resolution, alphas, upper_convention)


def _reports(windows, resolution: int, alphas, upper_convention: str) -> list:
    """The ``WindowReport`` of each window: its grid, Pearson matrix and tail curve one
    window at a time, then all windows' Gaussian tails in one ``_gaussian_tails`` call."""
    parts, distinct = [], []
    for window in windows:
        grid = average_pairwise_density(window, resolution)
        corr = pearson_matrix(window)
        parts.append((window, grid, mean_correlation(corr),
                      tail_curve(grid, alphas, upper_convention=upper_convention)))
        distinct.append(_distinct_correlations(corr))
    return [WindowReport(*window.period, mean_correlation=mean, tail=tail,
                         gaussian_tail=gaussian_tail, sample_count=window.n_observations,
                         grid=grid)
            for (window, grid, mean, tail), gaussian_tail
            in zip(parts, _gaussian_tails(distinct, alphas))]


def write_relation_csv(reports, destination) -> None:
    """Relation dataset: one row per (window, alpha).

    Columns: ``window_start,window_end,mean_corr,alpha,lambda_lower,``
    ``lambda_upper,lambda_gauss``.
    """
    table: dict = {}
    blocks = (
        [[f"{rep.window_start.isoformat()},{rep.window_end.isoformat()},"
          f"{rep.mean_correlation!r}"] * rep.tail.alphas.size]
        + [_reprs(values, table) for values in (rep.tail.alphas, rep.tail.lower,
                                                rep.tail.upper, rep.gaussian_tail.lower)]
        for rep in reports
    )
    header = "window_start,window_end,mean_corr,alpha,lambda_lower,lambda_upper,lambda_gauss"
    _write_csv(destination, header, blocks)


def write_tail_curve_csv(curve: TailCurve, destination) -> None:
    """Tail curve as CSV rows ``alpha,lambda_lower,lambda_upper``."""
    table: dict = {}
    columns = [_reprs(values, table) for values in (curve.alphas, curve.lower, curve.upper)]
    _write_csv(destination, "alpha,lambda_lower,lambda_upper", [columns])
