"""Empirical copula grids: counts, cumulative nodes, averaging, interpolation."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copuladyn import (
    average_pairwise_density,
    empirical_copula_density,
    interpolate_cumulative,
    quantile_bins,
    write_grid_csv,
)
from copuladyn import copula
from oracles import loop_cumulative, loop_density_counts

# Fixed 12-point sample with heavy ties; oracle values computed by the
# pure-python scan implementation in oracles.py.
R1 = [5.0, 2.0, 2.0, 9.0, 1.0, 7.0, 2.0, 8.0, 3.0, 6.0, 4.0, 2.0]
R2 = [1.0, 4.0, 4.0, 2.0, 9.0, 3.0, 4.0, 5.0, 8.0, 6.0, 7.0, 4.0]
ORACLE_COUNTS = [[4, 0, 1], [1, 0, 2], [2, 1, 1]]
ORACLE_CUM = [
    [0.3333333333333333, 0.3333333333333333, 0.4166666666666667],
    [0.4166666666666667, 0.4166666666666667, 0.6666666666666666],
    [0.5833333333333334, 0.6666666666666666, 1.0],
]

paired = st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=n, max_size=n),
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=n, max_size=n),
        st.integers(min_value=2, max_value=6),
    )
)


def test_density_counts_match_scan_oracle():
    grid = empirical_copula_density(R1, R2, 3)
    assert (grid.density * grid.sample_count).astype(int).tolist() == ORACLE_COUNTS
    assert grid.sample_count == 12


def test_cumulative_nodes_match_scan_oracle():
    grid = empirical_copula_density(R1, R2, 3)
    for i in range(3):
        for j in range(3):
            assert grid.cumulative[i + 1, j + 1] == ORACLE_CUM[i][j]
    assert np.all(grid.cumulative[0, :] == 0.0)
    assert np.all(grid.cumulative[:, 0] == 0.0)


def test_pointwise_cumulative_examples():
    assert loop_cumulative(R1, R2, 0.5, 0.5) == 0.3333333333333333
    assert loop_cumulative(R1, R2, 0.4, 0.7) == 0.3333333333333333
    assert loop_cumulative(R1, R2, 1.0, 1.0) == 1.0
    assert loop_cumulative(R1, R2, 0.0, 0.7) in (0.0, pytest.approx(0.0))


def test_comonotone_diagonal():
    x = np.arange(20.0)
    grid = empirical_copula_density(x, 2.0 * x + 5.0, 5)
    assert np.allclose(np.diag(grid.density), 0.2)
    assert grid.density.sum() == pytest.approx(1.0, abs=0.0)
    off = grid.density - np.diag(np.diag(grid.density))
    assert np.all(off == 0.0)
    for i in range(1, 6):
        assert grid.cumulative[i, i] == pytest.approx(i / 5, abs=1e-15)


def test_countermonotone_antidiagonal():
    x = np.arange(20.0)
    grid = empirical_copula_density(x, -x, 5)
    assert np.allclose(np.diag(np.fliplr(grid.density)), 0.2)
    assert loop_cumulative(x, -x, 0.5, 0.5) == 0.0
    # Frechet lower bound max(u+v-1, 0) exactly on the node grid
    for i in range(1, 6):
        for j in range(1, 6):
            assert grid.cumulative[i, j] == pytest.approx(
                max(i / 5 + j / 5 - 1.0, 0.0), abs=1e-15)


def test_independent_sample_near_uniform(rng):
    a = rng.normal(size=60000)
    b = rng.normal(size=60000)
    grid = empirical_copula_density(a, b, 4)
    assert np.all(np.abs(grid.density - 1 / 16) < 0.01)


@pytest.mark.filterwarnings("ignore:sample length")
@given(paired)
@settings(max_examples=60, deadline=None)
def test_grid_matches_loop_oracle(data):
    r1, r2, m = data
    grid = empirical_copula_density(r1, r2, m)
    counts = np.asarray(loop_density_counts(r1, r2, m), dtype=float)
    assert np.array_equal(grid.density, counts / len(r1))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            assert grid.cumulative[i, j] == loop_cumulative(r1, r2, i / m, j / m)


@pytest.mark.filterwarnings("ignore:sample length")
@given(paired)
@settings(max_examples=60, deadline=None)
def test_grid_invariants(data):
    r1, r2, m = data
    t = len(r1)
    grid = empirical_copula_density(r1, r2, m)
    assert grid.density.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(grid.density >= 0.0)
    cum = grid.cumulative
    assert np.all(np.diff(cum, axis=0) >= 0.0)
    assert np.all(np.diff(cum, axis=1) >= 0.0)
    assert cum[m, m] == 1.0
    # Frechet bands with slack for tied ranks: a tie block of size k shifts
    # node masses by up to k/t
    tie1 = np.max(np.unique(np.asarray(r1), return_counts=True)[1])
    tie2 = np.max(np.unique(np.asarray(r2), return_counts=True)[1])
    slack = max(tie1, tie2) / t
    for i in range(m + 1):
        for j in range(m + 1):
            u, v = i / m, j / m
            assert cum[i, j] >= max(u + v - 1.0, 0.0) - 1e-12
            assert cum[i, j] <= min(u, v) + slack + 1e-12


def test_symmetry_of_swapped_arguments(rng):
    a = rng.normal(size=500)
    b = rng.normal(size=500)
    g1 = empirical_copula_density(a, b, 10)
    g2 = empirical_copula_density(b, a, 10)
    assert np.array_equal(g1.density, g2.density.T)
    assert np.array_equal(g1.cumulative, g2.cumulative.T)


def test_rank_invariance(rng):
    a = rng.normal(size=400)
    b = rng.normal(size=400)
    g1 = empirical_copula_density(a, b, 8)
    g2 = empirical_copula_density(np.exp(a), b ** 3 + b, 8)
    assert np.array_equal(g1.density, g2.density)
    assert np.array_equal(g1.cumulative, g2.cumulative)


def test_quantile_bins_small_sample_uses_first_matching_edge():
    # T < m gives duplicate quantile edges; each value takes the lowest bin
    # whose upper edge reaches it
    assert quantile_bins([1.0, 2.0], 4).tolist() == [0, 2]
    # the grid constructor flags the sparsity
    with pytest.warns(UserWarning, match="sparse"):
        empirical_copula_density([1.0, 2.0], [2.0, 1.0], 4)


def test_resolution_must_be_at_least_two():
    with pytest.raises(ValueError):
        quantile_bins([1.0, 2.0, 3.0], 1)
    with pytest.raises(ValueError):
        empirical_copula_density([1.0, 2.0], [2.0, 1.0], 0)


@pytest.mark.parametrize("series, resolution, message", [
    ([1.0, 2.0, 3.0], 1, "resolution must be at least 2"),
    ([[1.0, 2.0], [3.0, 4.0]], 3, "sample must be one dimensional"),
    ([], 3, "sample must not be empty"),
    ([1.0, np.nan, 3.0], 3, "sample values must be finite"),
    ([1.0, np.inf, 3.0], 3, "sample values must be finite"),
])
def test_quantile_bins_refusals(series, resolution, message):
    with pytest.raises(ValueError) as fault:
        quantile_bins(series, resolution)
    assert str(fault.value) == message


@pytest.mark.parametrize("panel, message", [
    (np.ones((1, 5)), "need at least two assets to form pairs"),
    (np.ones(5), "return panel must be a 2-D assets x time array"),
    (np.ones((2, 3, 4)), "return panel must be a 2-D assets x time array"),
    (np.ones((3, 0)), "sample must not be empty"),
    (np.array([[1.0, 2.0, 3.0], [1.0, -np.inf, 2.0]]), "sample values must be finite"),
])
def test_average_pairwise_refusals(panel, message):
    with pytest.raises(ValueError) as fault:
        average_pairwise_density(panel, 3)
    assert str(fault.value) == message


def test_average_pairwise_bins_in_blocks_of_rows(rng, monkeypatch):
    mat = rng.integers(-3, 4, size=(7, 50)) * 1e-3  # ties at every bin edge
    whole = average_pairwise_density(mat, 6)
    for cells in (1, 100, 150):  # blocks of one row, two rows, and 3 + 3 + 1 rows
        monkeypatch.setattr(copula, "_BIN_BLOCK_CELLS", cells)
        grid = average_pairwise_density(mat, 6)
        assert np.array_equal(grid.density, whole.density)
        assert np.array_equal(grid.cumulative, whole.cumulative)


def test_average_pairwise_two_assets_equals_single_pair(rng):
    mat = rng.normal(size=(2, 300))
    avg = average_pairwise_density(mat, 6)
    single = empirical_copula_density(mat[0], mat[1], 6)
    assert np.array_equal(avg.density, single.density)
    assert np.array_equal(avg.cumulative, single.cumulative)
    assert avg.pair_count == 1


def test_average_pairwise_matches_explicit_mean(rng):
    mat = rng.normal(size=(5, 200))
    avg = average_pairwise_density(mat, 4)
    assert avg.pair_count == 10
    # accumulate integer cell counts pair by pair, then divide once: this is
    # the exact reduction order the estimator promises
    counts = np.zeros((4, 4), dtype=np.int64)
    for i in range(5):
        for j in range(i + 1, 5):
            dens = empirical_copula_density(mat[i], mat[j], 4).density
            counts += np.rint(dens * 200).astype(np.int64)
    assert np.array_equal(avg.density, counts / (10 * 200))


def test_interpolation_at_nodes_and_midpoints():
    grid = empirical_copula_density(R1, R2, 3)
    for i in range(4):
        for j in range(4):
            assert interpolate_cumulative(grid, i / 3, j / 3) == grid.cumulative[i, j]
    mid = interpolate_cumulative(grid, 0.5, 1.0)
    expect = 0.5 * (grid.cumulative[1, 3] + grid.cumulative[2, 3])
    assert mid == pytest.approx(expect, abs=1e-15)
    with pytest.raises(ValueError):
        interpolate_cumulative(grid, 1.2, 0.5)


def test_write_grid_csv_roundtrip():
    grid = empirical_copula_density(R1, R2, 3)
    buf = io.StringIO()
    write_grid_csv(grid, buf, permille=True)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "i,j,u_hi,v_hi,density,cumulative,density_permille"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    assert float(first[4]) == grid.density[0, 0]
    assert float(first[5]) == grid.cumulative[1, 1]
    assert float(first[6]) == grid.density[0, 0] * 1000.0
    # every float survives the text roundtrip bit for bit
    for line in lines[1:]:
        parts = line.split(",")
        i, j = int(parts[0]), int(parts[1])
        assert float(parts[4]) == grid.density[i - 1, j - 1]
        assert float(parts[5]) == grid.cumulative[i, j]
