"""Empirical copula estimation on quantile grids.

The joint dependence of two return series is summarized on an m-by-m grid of
marginal quantile bins. F is a margin's empirical CDF, F(x) = #{t : x_t <= x} / T,
so tied values share the highest rank, and F^-1(u) = inf{x : F(x) >= u} is its
generalized inverse. Bin i of a margin covers the half-open quantile
interval (F^-1((i-1)/m), F^-1(i/m)]; an observation tied with a bin edge goes
to the lowest-indexed bin whose upper edge contains it, and the lowest bin is
closed below so it picks up the sample minimum. Cell (i, j) of the density
grid holds the fraction of time points whose first series falls in bin i and
whose second falls in bin j; cells therefore sum to one and each margin is
uniform up to tie-induced lumping.

The cumulative grid holds the empirical copula at the grid nodes,
``cumulative[i][j] = Cop(i/m, j/m)``, with the conventional zero boundary at
i = 0 and j = 0. At interior nodes the prefix sum of the density cells equals
the direct indicator-count estimator exactly, because integer counts are
accumulated before the single division by the sample count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "CopulaGrid",
    "quantile_bins",
    "empirical_copula_density",
    "average_pairwise_density",
    "interpolate_cumulative",
    "write_grid_csv",
    "write_grid_csvs",
]

# entries kept by the value-text table of one CSV writing call (about 2 MiB);
# values beyond it are formatted each time they occur
_REPR_TABLE_CAP = 1 << 14

@dataclass(frozen=True)
class CopulaGrid:
    """Gridded copula estimate.

    Attributes
    ----------
    resolution : int
        Number of quantile bins per margin (m).
    density : ndarray, shape (m, m)
        Cell masses; ``density[i, j]`` is the mass of quantile bin i+1 of the
        first margin against bin j+1 of the second. Non-negative, sums to 1.
    cumulative : ndarray, shape (m+1, m+1)
        Copula values at the grid nodes, ``cumulative[i, j] = Cop(i/m, j/m)``,
        zero along the i = 0 and j = 0 boundaries.
    sample_count : int
        Number of elementary observations behind the estimate: T for a single
        pair, T times the number of pairs for an average. 0 marks an analytic
        (noise-free) grid.
    pair_count : int
        Number of series pairs averaged into this grid.
    """

    resolution: int
    density: np.ndarray
    cumulative: np.ndarray
    sample_count: int
    pair_count: int = 1


def quantile_bins(series, resolution: int) -> np.ndarray:
    """Assign each observation to its marginal quantile bin.

    Returns 0-based bin indices in [0, resolution). The upper edge of bin i is
    F^-1(i/m): the k-th smallest observation for the least k whose float
    level k/T is >= i/m. Observation x lands in the first bin whose edge is
    >= x, which implements the half-open interval convention with ties going
    to the lower-indexed bin and the minimum included in the first bin. The
    top edge is the sample maximum, so no index reaches ``resolution``.
    """
    sample = np.asarray(series, dtype=float)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if sample.ndim != 1:
        raise ValueError("sample must be one dimensional")
    if sample.size == 0:
        raise ValueError("sample must not be empty")
    if not np.all(np.isfinite(sample)):
        raise ValueError("sample values must be finite")
    size = sample.size
    levels = np.arange(1, size + 1) / size
    ranks = np.searchsorted(levels, np.arange(1, resolution + 1) / resolution, side="left")
    edges = np.sort(sample, kind="stable")[np.minimum(ranks, size - 1)]
    return np.searchsorted(edges, sample, side="left")


def _grid_from_counts(counts: np.ndarray, total: int, pair_count: int) -> CopulaGrid:
    """Build a CopulaGrid from integer cell counts.

    Counts are prefix-summed as integers before the single division so the
    cumulative grid equals the direct indicator estimator bit for bit.
    """
    m = counts.shape[0]
    density = counts / total
    cumulative = np.zeros((m + 1, m + 1))
    cumulative[1:, 1:] = counts.cumsum(axis=0).cumsum(axis=1) / total
    return CopulaGrid(
        resolution=m,
        density=density,
        cumulative=cumulative,
        sample_count=total,
        pair_count=pair_count,
    )


def empirical_copula_density(r1, r2, resolution: int) -> CopulaGrid:
    """Gridded empirical copula of one pair of aligned series.

    Parameters
    ----------
    r1, r2 : array_like
        Synchronous observations, same length T.
    resolution : int
        Bins per margin; a warning is issued when T < resolution because
        several bins are then necessarily empty.
    """
    a = np.asarray(r1, dtype=float)
    b = np.asarray(r2, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("series must be one dimensional and equally long")
    if a.size == 0:
        raise ValueError("series must not be empty")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if a.size < resolution:
        warnings.warn(
            f"sample length {a.size} is below grid resolution {resolution}; "
            "the grid will be sparse",
            stacklevel=2,
        )
    m = resolution
    flat = quantile_bins(a, m) * m + quantile_bins(b, m)
    counts = np.bincount(flat, minlength=m * m).reshape(m, m)
    return _grid_from_counts(counts, a.size, pair_count=1)


def average_pairwise_density(matrix, resolution: int) -> CopulaGrid:
    """Average the empirical copula density over all asset pairs i < j.

    Bin indices are computed once per asset; the pairs (i, j > i) of each
    first asset i then go into one integer histogram. Counts are integers, so
    the result is exact and does not depend on the order of accumulation.

    Parameters
    ----------
    matrix : ReturnMatrix or (K, T) array
        Aligned return panel with assets as rows, K >= 2.
    resolution : int
        Bins per margin.
    """
    returns = np.asarray(getattr(matrix, "returns", matrix), dtype=float)
    if returns.ndim != 2:
        raise ValueError("return panel must be a 2-D assets x time array")
    n_assets = returns.shape[0]
    if n_assets < 2:
        raise ValueError("need at least two assets to form pairs")
    m = resolution
    n_obs = returns.shape[1]
    bins = np.vstack([quantile_bins(returns[k], m) for k in range(n_assets)])
    counts = np.zeros(m * m, dtype=np.int64)
    for i in range(n_assets - 1):
        counts += np.bincount((bins[i] * m + bins[i + 1 :]).ravel(), minlength=m * m)
    n_pairs = n_assets * (n_assets - 1) // 2
    return _grid_from_counts(counts.reshape(m, m), n_pairs * n_obs, pair_count=n_pairs)


def interpolate_cumulative(grid: CopulaGrid, u: float, v: float) -> float:
    """Bilinear interpolation of the cumulative grid at (u, v) in [0, 1]^2."""
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ValueError("interpolation point must lie in [0, 1]^2")
    m = grid.resolution

    def locate(p: float):
        s = p * m
        lo = int(s)
        if lo >= m:
            lo = m - 1
        return lo, s - lo

    i0, fu = locate(u)
    j0, fv = locate(v)
    cum = grid.cumulative
    return float(
        (1.0 - fu) * (1.0 - fv) * cum[i0, j0]
        + fu * (1.0 - fv) * cum[i0 + 1, j0]
        + (1.0 - fu) * fv * cum[i0, j0 + 1]
        + fu * fv * cum[i0 + 1, j0 + 1]
    )


def write_grid_csv(grid: CopulaGrid, destination, permille: bool = False) -> None:
    """Write a copula grid as CSV rows ``i,j,u_hi,v_hi,density,cumulative``.

    Row (i, j), 1-based, covers the cell with upper corner (i/m, j/m): the
    density column is the cell mass and the cumulative column is the copula at
    that corner. With ``permille=True`` an extra ``density_permille`` column
    holds the cell mass scaled by 1000.
    """
    write_grid_csvs([grid], [destination], permille)


def write_grid_csvs(grids, destinations, permille: bool = False) -> None:
    """Write each grid to its destination (a path or an open text stream) as
    ``write_grid_csv`` does, with one ``_reprs`` table for all of them: a value
    that recurs across grids, as equal-length windows' counts do, is formatted once.
    """
    header = "i,j,u_hi,v_hi,density,cumulative" + (",density_permille" if permille else "")
    table: dict = {}
    for grid, destination in zip(grids, destinations, strict=True):
        density = np.asarray(grid.density, dtype=float)
        values = [density, np.asarray(grid.cumulative, dtype=float)[1:, 1:]]
        if permille:
            values.append(density * 1000.0)
        _write_cells(destination, header, values, table)


def _write_cells(destination, header: str, values, table: dict) -> None:
    """Write the cells of m x m grids as CSV rows ``i,j,u_hi,v_hi`` then one value per grid.

    Cells go in row-major order, one grid row (m lines) per ``write()``.
    """
    m = values[0].shape[0]
    index = [str(i) for i in range(1, m + 1)]
    hi = [repr(i / m) for i in range(1, m + 1)]
    blocks = ([[index[r]] * m, index, [hi[r]] * m, hi,
               *(_reprs(grid[r], table) for grid in values)] for r in range(m))
    _write_csv(destination, header, blocks)


def _rows_text(columns) -> str:
    """The CSV text of equally long ``str`` columns: row r joins the r-th entry of each
    column with commas, and every row ends in a newline (no rows give ``""``)."""
    return "\n".join([*map(",".join, zip(*columns)), ""])


def _write_csv(destination, header: str, blocks) -> None:
    """Write ``header``, then the rows of each block of columns in turn, one block per
    ``write()``."""
    _write_texts(destination, chain([header + "\n"], map(_rows_text, blocks)))


def _write_texts(destination, texts) -> None:
    """Write each text in turn to a path (truncating it; in UTF-8) or to an open text stream.

    A path is opened before the first text is taken from ``texts``.
    """
    if isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__"):
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            _write_texts(fh, texts)
        return
    for text in texts:
        destination.write(text)


def _reprs(values, table: dict) -> list:
    """The ``repr`` of each entry of ``values`` as a Python float, in C order.

    ``table`` keeps each text under its float64 bits (so ``0.0`` and ``-0.0``
    stay apart) until it holds ``_REPR_TABLE_CAP`` entries.
    """
    flat = np.asarray(values, dtype=float).ravel()
    get = table.get
    texts = []
    for key, value in zip(flat.view(np.int64).tolist(), flat.tolist()):
        text = get(key)
        if text is None:
            text = repr(value)
            if len(table) < _REPR_TABLE_CAP:
                table[key] = text
        texts.append(text)
    return texts
