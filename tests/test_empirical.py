"""The ECDF / quantile reference in oracles.py, and quantile_bins against it."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copuladyn import quantile_bins
from oracles import EmpiricalDistribution, ecdf, quantile, rank_transform, scan_quantile

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=60)
levels = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# few distinct values, so draws are full of ties, signed zeros and constant runs
tie_values = st.sampled_from([-2.5, -0.0, 0.0, 1e-300, 1.0, 3.0])
tied_samples = st.one_of(
    st.lists(st.one_of(tie_values, finite_floats), min_size=1, max_size=60),
    st.builds(lambda v, n: [v] * n, st.one_of(tie_values, finite_floats), st.integers(1, 40)),
)


def test_quantile_small_example():
    dist = EmpiricalDistribution.from_sample([3.0, 1.0, 2.0, 4.0])
    assert quantile(dist, 0.0) == 1.0
    assert quantile(dist, 0.25) == 1.0
    assert quantile(dist, 0.5) == 2.0
    assert quantile(dist, 0.75) == 3.0
    assert quantile(dist, 1.0) == 4.0
    # strictly between grid levels: round up to the next order statistic
    assert quantile(dist, 0.26) == 2.0
    assert quantile(dist, 0.51) == 3.0


def test_ecdf_small_example():
    dist = EmpiricalDistribution.from_sample([3.0, 1.0, 2.0, 4.0])
    assert ecdf(dist, 2.0) == 0.5
    assert ecdf(dist, 0.5) == 0.0
    assert ecdf(dist, 4.0) == 1.0
    assert ecdf(dist, 10.0) == 1.0


def test_quantile_ties_take_max_rank():
    dist = EmpiricalDistribution.from_sample([1.0, 2.0, 2.0, 2.0, 5.0])
    # ECDF jumps from 0.2 straight to 0.8 at the tied value
    assert quantile(dist, 0.3) == 2.0
    assert quantile(dist, 0.8) == 2.0
    assert quantile(dist, 0.81) == 5.0


def test_rank_transform_constant_series():
    ranks = rank_transform(np.full(7, 3.25))
    assert np.all(ranks == 1.0)


def test_rank_transform_example():
    ranks = rank_transform(np.array([10.0, 30.0, 20.0, 30.0]))
    assert ranks.tolist() == [0.25, 1.0, 0.5, 1.0]


def test_quantile_rejects_out_of_range():
    dist = EmpiricalDistribution.from_sample([1.0, 2.0])
    with pytest.raises(ValueError):
        quantile(dist, -0.01)
    with pytest.raises(ValueError):
        quantile(dist, 1.01)
    with pytest.raises(ValueError):
        quantile(dist, float("nan"))


def test_from_sample_rejects_bad_input():
    with pytest.raises(ValueError):
        EmpiricalDistribution.from_sample([])
    with pytest.raises(ValueError):
        EmpiricalDistribution.from_sample([1.0, float("nan")])


@given(samples, levels)
@settings(max_examples=200, deadline=None)
def test_quantile_matches_scan_oracle(sample, u):
    dist = EmpiricalDistribution.from_sample(sample)
    assert quantile(dist, u) == scan_quantile(sample, u)


@given(samples, levels)
@settings(max_examples=200, deadline=None)
def test_galois_pair(sample, u):
    """ecdf(quantile(u)) >= u, with equality whenever u sits on the rank grid."""
    dist = EmpiricalDistribution.from_sample(sample)
    q = quantile(dist, u)
    assert ecdf(dist, q) >= u


@given(samples)
@settings(max_examples=100, deadline=None)
def test_quantile_monotone(sample):
    dist = EmpiricalDistribution.from_sample(sample)
    us = np.linspace(0.0, 1.0, 37)
    qs = quantile(dist, us)
    assert np.all(np.diff(qs) >= 0.0)


@given(samples)
@settings(max_examples=100, deadline=None)
def test_ecdf_roundtrip_on_rank_grid(sample):
    """At exact rank levels the quantile is the order statistic itself."""
    dist = EmpiricalDistribution.from_sample(sample)
    t = dist.size
    for k in range(1, t + 1):
        assert quantile(dist, k / t) == dist.sorted_sample[min(
            int(np.searchsorted(dist.levels, k / t, side="left")), t - 1)]


@given(samples)
@settings(max_examples=100, deadline=None)
def test_rank_transform_is_ecdf_of_self(sample):
    arr = np.asarray(sample, dtype=float)
    dist = EmpiricalDistribution.from_sample(arr)
    ranks = rank_transform(arr)
    expected = np.array([ecdf(dist, x) for x in arr])
    assert np.array_equal(ranks, expected)


def test_rank_invariance_under_monotone_map(rng):
    x = rng.normal(size=300)
    assert np.array_equal(rank_transform(x), rank_transform(np.exp(x)))
    assert np.array_equal(rank_transform(x), rank_transform(x ** 3 + x))


# T a multiple of m (levels hit i/m exactly), T < m, ties across an edge, signed zeros
@example([3.0, 1.0, 2.0, 4.0], 2)
@example([5.0, 5.0, 1.0], 10)
@example([1.0, 2.0, 2.0, 2.0, 5.0, 6.0], 3)
@example([0.0, -0.0, 0.0, 1.0, -0.0, 2.0], 3)
@example([7.0] * 9, 4)
@given(tied_samples, st.integers(min_value=2, max_value=80))
@settings(max_examples=300, deadline=None)
def test_quantile_bins_match_oracle_edges(sample, m):
    """Bit for bit: each observation's bin is where it sorts among the quantile edges i/m."""
    x = np.asarray(sample, dtype=float)
    edges = quantile(EmpiricalDistribution.from_sample(x), np.arange(1, m + 1) / m)
    expect = np.searchsorted(edges, x, side="left")
    got = quantile_bins(x, m)
    assert got.dtype == expect.dtype
    assert np.array_equal(got, expect)
