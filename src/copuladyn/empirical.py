"""Empirical distribution of a finite sample: ECDF and quantiles.

The ECDF is the right-continuous step function F(x) = #{t : sample[t] <= x} / T.
Tied values share the rank of the highest tied observation (max-rank convention),
so a constant series maps to ranks of 1. The quantile function is the generalized
inverse F^-1(u) = inf{x : F(x) >= u}, which for a finite sample is the smallest
sample value whose ECDF reaches u. Both directions are evaluated with the exact
same floating point comparisons (ECDF levels k/T against u), so ecdf and quantile
stay consistent as a Galois pair even under ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EmpiricalDistribution", "ecdf", "quantile"]


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted view of a one dimensional sample with its ECDF levels.

    Attributes
    ----------
    sorted_sample : ndarray
        The sample in non-decreasing order.
    levels : ndarray
        ECDF plateau heights ``k / T`` for ``k = 1 .. T``; ``levels[k]`` is the
        ECDF evaluated at ``sorted_sample[k]``.

    Instances are immutable and safe to share across threads.
    """

    sorted_sample: np.ndarray
    levels: np.ndarray = field(repr=False)

    @classmethod
    def from_sample(cls, series) -> "EmpiricalDistribution":
        sample = np.asarray(series, dtype=float)
        if sample.ndim != 1:
            raise ValueError("sample must be one dimensional")
        if sample.size == 0:
            raise ValueError("sample must not be empty")
        if not np.all(np.isfinite(sample)):
            raise ValueError("sample values must be finite")
        size = sample.size
        # stable, so equal values (0.0 and -0.0) keep their input order
        return cls(
            sorted_sample=np.sort(sample, kind="stable"),
            levels=np.arange(1, size + 1) / size,
        )

    @property
    def size(self) -> int:
        return self.sorted_sample.size


def ecdf(dist: EmpiricalDistribution, x):
    """Evaluate the empirical CDF at ``x`` (scalar or array).

    Returns #{t : sample[t] <= x} / T, the max-rank convention for ties.
    """
    pos = np.searchsorted(dist.sorted_sample, x, side="right")
    out = pos / dist.size
    if np.isscalar(x):
        return float(out)
    return out


def quantile(dist: EmpiricalDistribution, u):
    """Generalized inverse of the ECDF at ``u`` in [0, 1] (scalar or array).

    For 0 < u <= 1 returns the smallest sample value whose ECDF is >= u.
    At u = 0 the defining set is empty and the sample minimum is returned,
    keeping the function total and monotone on [0, 1].

    The comparison is done against the stored ECDF levels k/T with the same
    float semantics used by :func:`ecdf`, so ``ecdf(dist, quantile(dist, u)) >= u``
    holds exactly.
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)) or np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ValueError("quantile level must lie in [0, 1]")
    idx = np.searchsorted(dist.levels, u_arr, side="left")
    # levels[-1] == 1.0, so idx can only reach size for u > 1; clamp defensively
    idx = np.minimum(idx, dist.size - 1)
    out = dist.sorted_sample[idx]
    if np.isscalar(u):
        return float(out)
    return out
