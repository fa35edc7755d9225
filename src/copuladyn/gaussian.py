"""Gaussian copula reference surfaces and empirical-minus-Gaussian maps.

The bivariate normal CDF is evaluated in closed form through Owen's T
function (Owen 1956, Ann. Math. Stat. 27:1075), vectorised over arguments and
correlations. The Gaussian copula follows by the probability-integral
transform; copula grids are filled at the quantile nodes and differenced by
inclusion-exclusion so a Gaussian grid is directly comparable, cell by cell,
with an empirical grid of the same resolution.

``scipy.special`` is imported inside the functions that evaluate a normal
CDF or quantile, so importing this module does not load scipy, and the CLI
commands without a Gaussian step never pay for that import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copula import CopulaGrid, _float_list, _write_lines

__all__ = [
    "DifferenceGrid",
    "std_normal_quantile",
    "bivariate_normal_cdf",
    "gaussian_copula_cdf",
    "gaussian_grid",
    "average_gaussian_density",
    "difference_map",
    "write_difference_csv",
]

# beyond this the univariate tail mass is below 1e-300 and can be truncated
_TAIL_LIMIT = 40.0
# correlations are rounded to this many decimals before the Gaussian baseline
_CORR_DECIMALS = 3


def _correlation(correlation) -> np.ndarray:
    c = np.asarray(correlation, dtype=float)
    if not np.all((c >= -1.0) & (c <= 1.0)):
        raise ValueError("correlation must lie in [-1, 1]")
    return c


@dataclass(frozen=True)
class DifferenceGrid:
    """Cellwise difference between an empirical and a Gaussian copula grid.

    ``values[i, j]`` is empirical minus Gaussian cell mass; positive where the
    observed dependence is denser than the Gaussian baseline.
    """

    resolution: int
    values: np.ndarray


def std_normal_quantile(u):
    """Standard normal quantile for u strictly inside (0, 1)."""
    from scipy.special import ndtri
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0) or not np.all(np.isfinite(u_arr)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    out = ndtri(u_arr)
    return float(out) if np.isscalar(u) else out


def bivariate_normal_cdf(x, y, correlation):
    """P(X <= x, Y <= y) for standard bivariate normal (X, Y).

    Broadcasts over ``x``, ``y`` and ``correlation``; all-scalar input gives a
    float. The degenerate cases c = +/-1 use the comonotone and
    countermonotone closed forms, and arguments beyond +/-40 standard
    deviations are truncated. Otherwise Owen's (1956) reduction to two Owen's
    T functions is used, with h = min(x, y) and k = max(x, y) so the result is
    exactly symmetric in (x, y):

        Phi2 = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta,
        a_h = (k - c h) / (h sqrt(1 - c^2)),  a_k = (h - c k) / (k sqrt(1 - c^2)),

    where beta = 1/2 when h < 0 <= k and 0 otherwise. At h = k = 0 the limit
    1/4 + asin(c) / (2 pi) is used.
    """
    from scipy.special import ndtr, owens_t
    c = _correlation(correlation)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("arguments must not be NaN")
    # adding +0.0 turns -0.0 into +0.0, so a zero argument gets a = +/-inf with
    # the sign of the other argument, and T(0, +/-inf) = +/-1/4
    h = np.minimum(x, y) + 0.0
    k = np.maximum(x, y) + 0.0
    h, k, c = np.broadcast_arrays(h, k, c)
    phi_h = ndtr(h)
    phi_k = ndtr(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.sqrt((1.0 - c) * (1.0 + c))
        a_h = (k - c * h) / (h * scale)
        a_k = (h - c * k) / (k * scale)
        owen = (
            0.5 * phi_h
            + 0.5 * phi_k
            - owens_t(h, a_h)
            - owens_t(k, a_k)
            - np.where((h < 0.0) & (k >= 0.0), 0.5, 0.0)
        )
    out = np.select(
        [c == 1.0, c == -1.0, h <= -_TAIL_LIMIT, k >= _TAIL_LIMIT, (h == 0.0) & (k == 0.0)],
        [
            phi_h,
            np.maximum(phi_h + phi_k - 1.0, 0.0),
            0.0,
            phi_h,
            0.25 + np.arcsin(c) / (2.0 * math.pi),
        ],
        np.clip(owen, 0.0, 1.0),
    )
    return float(out) if out.ndim == 0 else out


def gaussian_copula_cdf(u, v, correlation):
    """Gaussian copula Cop_c(u, v) on [0, 1]^2.

    Broadcasts over ``u``, ``v`` and ``correlation``; all-scalar input gives a
    float. Boundary values follow by continuity: zero when either argument is
    zero, the other argument when one argument is one.
    """
    from scipy.special import ndtri
    c = _correlation(correlation)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all((u >= 0.0) & (u <= 1.0)) and np.all((v >= 0.0) & (v <= 1.0))):
        raise ValueError("copula arguments must lie in [0, 1]")
    # quantiles of the unbroadcast arguments: one per value of u and of v, not
    # per cell; each closed form below overrides the ones above it
    out = bivariate_normal_cdf(ndtri(u), ndtri(v), c)
    out = np.where(c == -1.0, np.maximum(u + v - 1.0, 0.0), out)
    out = np.where(c == 1.0, np.minimum(u, v), out)
    out = np.where(c == 0.0, u * v, out)
    out = np.where(v == 1.0, u, out)
    out = np.where(u == 1.0, v, out)
    out = np.where((u == 0.0) | (v == 0.0), 0.0, out)
    return float(out) if out.ndim == 0 else out


def gaussian_grid(correlation: float, resolution: int) -> CopulaGrid:
    """Gaussian copula on the same quantile grid as the empirical estimator.

    ``cumulative[i, j] = Cop_c(i/m, j/m)`` from one ``gaussian_copula_cdf``
    call; cell masses come from corner inclusion-exclusion of the cumulative,
    so they are exact cell probabilities, directly comparable with empirical
    cell masses. Degenerate correlations +/-1 produce the comonotone and
    countermonotone grids.
    ``sample_count`` is 0: the grid is analytic, not an estimate.
    """
    c = float(_correlation(correlation))
    m = int(resolution)
    if m < 2:
        raise ValueError("resolution must be at least 2")
    nodes = np.arange(m + 1) / m
    cumulative = gaussian_copula_cdf(nodes[:, None], nodes[None, :], c)
    density = (
        cumulative[1:, 1:]
        - cumulative[:-1, 1:]
        - cumulative[1:, :-1]
        + cumulative[:-1, :-1]
    )
    np.maximum(density, 0.0, out=density)
    # inclusion-exclusion subtracts mirrored cells in a different order, which
    # costs an ulp; copy the upper triangle so the grid is symmetric bit for bit
    iu, ju = np.triu_indices(m, 1)
    density[ju, iu] = density[iu, ju]
    return CopulaGrid(
        resolution=m,
        density=density,
        cumulative=cumulative,
        sample_count=0,
        pair_count=1,
    )


def _distinct_correlations(corr) -> tuple[np.ndarray, np.ndarray]:
    """Distinct upper-triangle correlations, rounded, with their pair counts.

    Entries are rounded to ``_CORR_DECIMALS`` decimals, so the Gaussian
    baseline is evaluated once per distinct rounded value instead of once per
    pair; the induced error is far below sampling noise. Values come out
    sorted, so reductions over them are deterministic.
    """
    values = np.asarray(getattr(corr, "values", corr), dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("correlation matrix must be square")
    if not np.array_equal(values, values.T):
        raise ValueError("correlation matrix must be symmetric")
    k = values.shape[0]
    if k < 2:
        raise ValueError("correlation matrix must cover at least two assets")
    iu = np.triu_indices(k, 1)
    return np.unique(np.round(values[iu], _CORR_DECIMALS), return_counts=True)


def average_gaussian_density(corr, resolution: int) -> CopulaGrid:
    """Mean Gaussian copula grid over all pairs of a correlation matrix.

    One grid per distinct rounded correlation (``_distinct_correlations``),
    weighted by its pair count.
    """
    unique, counts = _distinct_correlations(corr)
    m = int(resolution)
    density = np.zeros((m, m))
    cumulative = np.zeros((m + 1, m + 1))
    for c_val, weight in zip(unique, counts):
        ref = gaussian_grid(float(c_val), m)
        density += weight * ref.density
        cumulative += weight * ref.cumulative
    n_pairs = int(counts.sum())
    density /= n_pairs
    cumulative /= n_pairs
    return CopulaGrid(
        resolution=m,
        density=density,
        cumulative=cumulative,
        sample_count=0,
        pair_count=n_pairs,
    )


def difference_map(empirical: CopulaGrid, corr) -> DifferenceGrid:
    """Empirical minus Gaussian cell masses on a shared grid.

    The Gaussian side pairs each entry of the correlation upper triangle with
    a reference grid at the empirical grid's resolution and averages them, so
    the subtraction is cell-aligned by construction. Positive cells mark
    regions where the Gaussian baseline under-represents the observed mass.
    """
    reference = average_gaussian_density(corr, empirical.resolution)
    if reference.pair_count != empirical.pair_count:
        raise ValueError(
            f"correlation matrix covers {reference.pair_count} pairs but the "
            f"empirical grid averages {empirical.pair_count}"
        )
    return DifferenceGrid(
        resolution=empirical.resolution,
        values=empirical.density - reference.density,
    )


def write_difference_csv(diff: DifferenceGrid, destination) -> None:
    """Write a difference map as CSV rows ``i,j,u_hi,v_hi,d_permille``.

    Cell values are scaled by 1000 (per-mille), matching the reporting scale
    of the difference analysis.
    """
    m = diff.resolution
    values = _float_list(diff.values)

    def lines():
        yield "i,j,u_hi,v_hi,d_permille"
        for i in range(1, m + 1):
            u_hi = i / m
            row = values[i - 1]
            for j in range(1, m + 1):
                yield f"{i},{j},{u_hi!r},{j / m!r},{row[j - 1] * 1000.0!r}"

    _write_lines(destination, lines())
