"""Gaussian copula reference surfaces and empirical-minus-Gaussian maps.

The bivariate normal CDF is the Gauss-Legendre integral of Drezner and
Wesolowsky (1990, J. Stat. Comput. Simul. 35:101) in the form of Genz (2004,
Stat. Comput. 14:251): a 20-point rule over the arcsine of the correlation
for |c| < 0.925, and Genz's expansion about the (anti)diagonal for stronger
correlations. It needs only exp, sin and the univariate normal CDF, and is
vectorised over arguments and correlations. Its absolute error is about
1e-16: at the nodes of m = 10 and m = 50 copula grids it is within 2.3e-16
of 40-digit quadrature, and on 10^6 random triples (|x|, |y| <= 6,
|c| <= 0.99999) within 4.5e-16 of Owen's (1956) T-function closed form.
The univariate CDF is erfc(-x / sqrt 2) / 2 from ``math.erfc``, within
2e-13 relative on [-37, 8]; the quantile is Wichura's AS241 from
``statistics.NormalDist``. The Gaussian copula follows by the
probability-integral transform; copula grids are filled at the quantile nodes
and differenced by inclusion-exclusion so a Gaussian grid is directly
comparable, cell by cell, with an empirical grid of the same resolution.
Nothing here imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copula import CopulaGrid, _cell_rows, _write_csv

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
# grid cells the Gaussian baseline evaluates at once: blocks of this // (m+1)^2
# distinct correlations, 4332 at m = 10 (rounding allows 2001, so one block)
_BASELINE_BLOCK_CELLS = 1 << 19
# from this |c| on, Genz's high-correlation expansion replaces the arcsine rule
_HIGH_CORRELATION = 0.925
# 20-point Gauss-Legendre rule on [0, 1]: nodes (1 -/+ x_i) / 2 in pairs, and
# weights w_i / 2, each listed once per node of its pair
_GL_NODES = (
    0.0034357004074525377, 0.9965642995925474, 0.018014036361043106, 0.9819859636389568,
    0.04388278587433705, 0.956117214125663, 0.0804415140888906, 0.9195584859111094,
    0.1268340467699246, 0.8731659532300754, 0.1819731596367425, 0.8180268403632576,
    0.24456649902458646, 0.7554335009754135, 0.3131469556422902, 0.6868530443577098,
    0.38610707442917747, 0.6138929255708225, 0.46173673943325133, 0.5382632605667487,
)
_GL_WEIGHTS = tuple(w for w in (
    0.008807003569576059, 0.02030071490019347, 0.031336024167054534, 0.04163837078835238,
    0.05096505990862022, 0.059097265980759206, 0.06584431922458832, 0.07104805465919102,
    0.07458649323630187, 0.07637669356536292,
) for _ in range(2))
_TWO_PI = 2.0 * math.pi
_SQRT_HALF = math.sqrt(0.5)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _correlation(correlation) -> np.ndarray:
    c = np.asarray(correlation, dtype=float)
    if not np.all((c >= -1.0) & (c <= 1.0)):
        raise ValueError("correlation must lie in [-1, 1]")
    return c


def _std_normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = erfc(-x / sqrt 2) / 2, one ``math.erfc`` call per element."""
    return 0.5 * np.asarray(_erfc(x * -_SQRT_HALF), dtype=float)


def _std_normal_quantile(u: np.ndarray) -> np.ndarray:
    """Phi^-1 on [0, 1]; -inf at 0 and +inf at 1."""
    from statistics import NormalDist  # only the Gaussian step pays for this import
    inside = (u > 0.0) & (u < 1.0)
    out = np.where(u < 0.5, -np.inf, np.inf)
    out[inside] = np.frompyfunc(NormalDist().inv_cdf, 1, 1)(u[inside])
    return out


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
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0) or not np.all(np.isfinite(u_arr)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    out = _std_normal_quantile(u_arr)
    return float(out) if np.isscalar(u) else out


def bivariate_normal_cdf(x, y, correlation):
    """P(X <= x, Y <= y) for standard bivariate normal (X, Y).

    Broadcasts over ``x``, ``y`` and ``correlation``; all-scalar input gives a
    float, and each element of an array result equals the scalar call on its
    arguments. The degenerate cases c = +/-1 use the comonotone and
    countermonotone closed forms, and arguments beyond +/-40 standard
    deviations are truncated. At h = k = 0 the limit 1/4 + asin(c) / (2 pi)
    is used. Otherwise, with h = min(x, y) and k = max(x, y) so the result is
    exactly symmetric in (x, y), Genz's (2004) evaluation of

        Phi2 = Phi(h) Phi(k)
               + 1/(2 pi) int_0^asin(c) exp(-(h^2 + k^2 - 2 h k sin t) / (2 cos^2 t)) dt

    is used: the 20-point Gauss-Legendre rule for |c| < 0.925, and his
    expansion in sqrt(1 - c^2) for |c| >= 0.925.
    """
    c = _correlation(correlation)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("arguments must not be NaN")
    shape = np.broadcast_shapes(x.shape, y.shape, c.shape)
    # at least 1-d, so a scalar call runs the same array operations as an array call
    x, y, c = np.atleast_1d(x, y, c)
    # Phi is monotone: Phi(min) and Phi(max) need one Phi per argument value,
    # before the arguments are broadcast against each other
    phi_x = _std_normal_cdf(x)
    phi_y = _std_normal_cdf(y)
    h = np.minimum(x, y)
    k = np.maximum(x, y)
    phi_h = np.minimum(phi_x, phi_y)
    phi_k = np.maximum(phi_x, phi_y)
    # infinite arguments give inf - inf in the kernels; np.select replaces those cells
    with np.errstate(all="ignore"):
        out = _arcsine_integral(h, k, c)
        out += phi_h * phi_k
        high = (np.abs(c) >= _HIGH_CORRELATION) & (np.abs(c) < 1.0)
        high = np.broadcast_to(high & (h > -_TAIL_LIMIT) & (k < _TAIL_LIMIT), out.shape)
        if high.any():
            out[high] = _high_correlation(
                *(np.broadcast_to(a, out.shape)[high] for a in (h, k, c, phi_h, phi_k))
            )
    out = np.select(
        [c == 1.0, c == -1.0, h <= -_TAIL_LIMIT, k >= _TAIL_LIMIT, (h == 0.0) & (k == 0.0)],
        [
            phi_h,
            np.maximum(phi_h + phi_k - 1.0, 0.0),
            0.0,
            phi_h,
            0.25 + np.arcsin(c) / _TWO_PI,
        ],
        np.clip(out, 0.0, 1.0, out=out),
    ).reshape(shape)
    return float(out) if out.ndim == 0 else out


def _arcsine_integral(h, k, c) -> np.ndarray:
    """Phi2 - Phi(h) Phi(k) by the 20-point rule over t in [0, asin c].

    The nodes are summed one at a time in a fixed order, so each cell's value
    does not depend on the shape of the call it is part of.
    """
    hk = h * k
    hs = (h * h + k * k) / 2.0
    asr = np.arcsin(c)
    total = np.zeros(np.broadcast_shapes(hk.shape, asr.shape))
    term = np.empty_like(total)
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        sn = np.sin(asr * node)
        np.multiply(sn, hk, out=term)
        term -= hs
        term /= 1.0 - sn * sn
        np.exp(term, out=term)
        term *= weight
        total += term
    total *= asr / _TWO_PI
    return total


def _high_correlation(h, k, c, phi_h, phi_k) -> np.ndarray:
    """Phi2(h, k; c) for 0.925 <= |c| < 1 and -40 < h <= k < 40 (1-d arrays).

    Genz's (2004) form: the orthant probability is reflected onto c > 0,
    where it is Phi(h) minus an integral over sqrt(1 - c^2) whose integrand
    is expanded about its singular part; the remainder goes through the same
    20-point rule.
    """
    neg = c < 0.0
    # Genz's upper-orthant arguments are -h and -k, with the second negated for c < 0
    hk = np.where(neg, -h * k, h * k)
    bs = np.where(neg, h + k, k - h) ** 2
    a2 = (1.0 - c) * (1.0 + c)
    a = np.sqrt(a2)
    cc = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    asr = -(bs / a2 + hk) / 2.0
    bvn = np.where(
        asr > -100.0,
        a * np.exp(asr) * (1.0 - cc * (bs - a2) * (1.0 - d * bs) / 3.0 + cc * d * a2 * a2),
        0.0,
    )
    b = np.sqrt(bs)
    sp = math.sqrt(_TWO_PI) * _std_normal_cdf(-b / a)
    bvn -= np.where(
        hk > -100.0, np.exp(-hk / 2.0) * sp * b * (1.0 - cc * bs * (1.0 - d * bs) / 3.0), 0.0
    )
    total = np.zeros_like(bvn)
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        xs = (a * node) ** 2
        asr = -(bs / xs + hk) / 2.0
        rs = np.sqrt(1.0 - xs)
        sp = 1.0 + cc * xs * (1.0 + 5.0 * d * xs)
        ep = np.exp(-(hk / 2.0) * xs / (1.0 + rs) ** 2) / rs
        total += weight * np.where(asr > -100.0, np.exp(asr) * (sp - ep), 0.0)
    bvn = (a * total - bvn) / _TWO_PI
    out = np.where(neg, -bvn, bvn + phi_h)
    # c < 0 with h + k > 0: add the c = -1 value Phi(h) + Phi(k) - 1, written
    # as a difference of two Phi values so that no digits cancel against 1
    lift = neg & (h + k > 0.0)
    if lift.any():
        h, k = h[lift], k[lift]
        out[lift] += np.where(
            h > 0.0, phi_k[lift] - _std_normal_cdf(-h), phi_h[lift] - _std_normal_cdf(-k)
        )
    return out


def gaussian_copula_cdf(u, v, correlation):
    """Gaussian copula Cop_c(u, v) on [0, 1]^2.

    Broadcasts over ``u``, ``v`` and ``correlation``; all-scalar input gives a
    float. Boundary values follow by continuity: zero when either argument is
    zero, the other argument when one argument is one.
    """
    c = _correlation(correlation)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all((u >= 0.0) & (u <= 1.0)) and np.all((v >= 0.0) & (v <= 1.0))):
        raise ValueError("copula arguments must lie in [0, 1]")
    # quantiles of the unbroadcast arguments: one per value of u and of v, not
    # per cell; each closed form below overrides the ones above it
    out = bivariate_normal_cdf(_std_normal_quantile(u), _std_normal_quantile(v), c)
    out = np.where(c == -1.0, np.maximum(u + v - 1.0, 0.0), out)
    out = np.where(c == 1.0, np.minimum(u, v), out)
    out = np.where(c == 0.0, u * v, out)
    out = np.where(v == 1.0, u, out)
    out = np.where(u == 1.0, v, out)
    out = np.where((u == 0.0) | (v == 0.0), 0.0, out)
    return float(out) if out.ndim == 0 else out


def _node_cumulative(correlation, resolution: int) -> np.ndarray:
    """``Cop_c(i/m, j/m)`` on the (m+1) x (m+1) nodes, broadcast against ``correlation``.

    A scalar correlation gives one grid; shape (n, 1, 1) gives n stacked grids.
    """
    m = int(resolution)
    if m < 2:
        raise ValueError("resolution must be at least 2")
    nodes = np.arange(m + 1) / m
    return gaussian_copula_cdf(nodes[:, None], nodes[None, :], correlation)


def _cell_masses(cumulative: np.ndarray) -> np.ndarray:
    """Cell masses of (stacked) cumulative grids by corner inclusion-exclusion.

    Masses are clipped at zero and the result is symmetric bit for bit:
    inclusion-exclusion subtracts mirrored cells in a different order, which
    costs an ulp, so the upper triangle is copied onto the lower.
    """
    density = cumulative[..., 1:, 1:] - cumulative[..., :-1, 1:]
    density -= cumulative[..., 1:, :-1]
    density += cumulative[..., :-1, :-1]
    np.maximum(density, 0.0, out=density)
    iu, ju = np.triu_indices(density.shape[-1], 1)
    density[..., ju, iu] = density[..., iu, ju]
    return density


def gaussian_grid(correlation: float, resolution: int) -> CopulaGrid:
    """Gaussian copula on the same quantile grid as the empirical estimator.

    ``cumulative[i, j] = Cop_c(i/m, j/m)`` from one ``gaussian_copula_cdf``
    call; cell masses come from corner inclusion-exclusion of the cumulative,
    so they are exact cell probabilities, directly comparable with empirical
    cell masses. Degenerate correlations +/-1 produce the comonotone and
    countermonotone grids.
    ``sample_count`` is 0: the grid is analytic, not an estimate.
    """
    cumulative = _node_cumulative(float(_correlation(correlation)), resolution)
    return CopulaGrid(
        resolution=cumulative.shape[0] - 1,
        density=_cell_masses(cumulative),
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

    ``gaussian_copula_cdf`` fills the grids of the distinct rounded correlations
    (``_distinct_correlations``) ``_BASELINE_BLOCK_CELLS`` cells at a time; each
    grid is weighted by its pair count and added in the sorted order of the correlations.
    """
    unique, counts = _distinct_correlations(corr)
    m = int(resolution)
    if m < 2:
        raise ValueError("resolution must be at least 2")
    step = max(1, _BASELINE_BLOCK_CELLS // (m + 1) ** 2)
    density_sum = np.zeros((m, m))
    cumulative_sum = np.zeros((m + 1, m + 1))
    for start in range(0, unique.size, step):
        cumulative = _node_cumulative(unique[start:start + step, None, None], m)
        density = _cell_masses(cumulative)
        weights = counts[start:start + step, None, None]
        density *= weights
        cumulative *= weights
        # one grid at a time onto zeros, as ``sum(axis=0)`` adds up a stack
        for d, c in zip(density, cumulative):
            density_sum += d
            cumulative_sum += c
    n_pairs = int(counts.sum())
    return CopulaGrid(
        resolution=m,
        density=density_sum / n_pairs,
        cumulative=cumulative_sum / n_pairs,
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
    _write_csv(destination, "i,j,u_hi,v_hi,d_permille",
               _cell_rows([np.asarray(diff.values, dtype=float) * 1000.0], {}))
