"""Gaussian copula CDF, grids, and the empirical-minus-Gaussian map."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import ndtr

from copuladyn import (
    DifferenceGrid,
    ReturnMatrix,
    TradingCalendar,
    average_gaussian_density,
    average_pairwise_density,
    bivariate_normal_cdf,
    difference_map,
    empirical_copula_density,
    gaussian_copula_cdf,
    gaussian_grid,
    pearson_matrix,
    std_normal_quantile,
    synthetic_timestamps,
    write_difference_csv,
)
from copuladyn import gaussian
from oracles import (
    bvn_cdf_dblquad,
    bvn_cdf_owens_t,
    bvn_cdf_quad,
    gaussian_copula_density,
    one_call_gaussian_density,
    sample_bivariate_gaussian,
    student_t_panel,
)

# frozen output of the 2-D adaptive quadrature oracle (tests/oracles.py)
DBLQUAD_CASES = [
    (0.5, -0.3, 0.4, 0.3171269282861652),
    (1.2, 0.7, -0.6, 0.6452358404500927),
    (-1.0, 2.0, 0.9, 0.158655253931231),
    (-2.5, -2.5, 0.7, 0.0014857069239921344),
    (1.0, 1.0, -0.95, 0.682689492139535),
    (3.0, -3.0, 0.25, 0.0013498425704259298),
]

corrs = st.floats(min_value=-0.999, max_value=0.999, allow_nan=False)
units = st.floats(min_value=0.001, max_value=0.999, allow_nan=False)


@pytest.mark.parametrize("x,y,c,expected", DBLQUAD_CASES)
def test_cdf_matches_dblquad_oracle(x, y, c, expected):
    assert bivariate_normal_cdf(x, y, c) == pytest.approx(expected, abs=5e-10)


@pytest.mark.parametrize("c", [-0.99, -0.75, -0.5, 0.0, 0.3, 0.5, 0.8, 0.99])
def test_cdf_at_origin_arcsine_identity(c):
    expected = 0.25 + math.asin(c) / (2.0 * math.pi)
    assert bivariate_normal_cdf(0.0, 0.0, c) == pytest.approx(expected, abs=1e-13)


def test_cdf_origin_half_correlation_is_one_third():
    assert bivariate_normal_cdf(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-13)


def _phi(x):
    # the library's univariate CDF expression; scipy's ndtr differs in the last
    # bit on many inputs (at -1.2, for one), so it cannot be an exact reference
    return 0.5 * math.erfc(x * -math.sqrt(0.5))


def test_cdf_degenerate_correlations():
    # c = 1: min of the margins; c = -1: the countermonotone floor
    for x, y in [(0.3, -0.7), (-1.2, -1.2), (2.0, 0.1)]:
        assert bivariate_normal_cdf(x, y, 1.0) == min(_phi(x), _phi(y))
        assert bivariate_normal_cdf(x, y, -1.0) == max(_phi(x) + _phi(y) - 1.0, 0.0)


def test_cdf_symmetry_exact():
    for x, y, c in [(0.37, -1.21, 0.6), (2.5, 0.4, -0.8), (-0.1, -0.2, 0.95)]:
        assert bivariate_normal_cdf(x, y, c) == bivariate_normal_cdf(y, x, c)


def test_cdf_independence_factorizes():
    for x, y in [(0.5, -0.3), (-2.0, 1.0)]:
        assert bivariate_normal_cdf(x, y, 0.0) == pytest.approx(ndtr(x) * ndtr(y), abs=1e-14)


def test_cdf_marginalization_limit():
    # the second argument far in the upper tail reduces to the first margin
    for x in [-1.5, 0.0, 2.0]:
        for c in [-0.7, 0.2, 0.9]:
            assert bivariate_normal_cdf(x, 41.0, c) == pytest.approx(ndtr(x), abs=1e-12)
    assert bivariate_normal_cdf(-41.0, 1.0, 0.5) == 0.0


@given(corrs)
@settings(max_examples=50, deadline=None)
def test_cdf_monotone_in_correlation(c):
    lo = bivariate_normal_cdf(0.4, -0.2, max(c - 0.05, -1.0))
    hi = bivariate_normal_cdf(0.4, -0.2, min(c + 0.05, 1.0))
    assert hi >= lo - 1e-12


def test_quantile_cdf_roundtrip():
    xs = np.linspace(-5.0, 5.0, 101)
    back = std_normal_quantile(ndtr(xs))
    assert np.max(np.abs(back - xs)) < 1e-10


def test_copula_cdf_boundaries_and_margins():
    for c in [-0.8, 0.0, 0.6]:
        assert gaussian_copula_cdf(0.0, 0.5, c) == 0.0
        assert gaussian_copula_cdf(0.5, 0.0, c) == 0.0
        assert gaussian_copula_cdf(1.0, 0.73, c) == pytest.approx(0.73, abs=1e-12)
        assert gaussian_copula_cdf(0.73, 1.0, c) == pytest.approx(0.73, abs=1e-12)
    assert gaussian_copula_cdf(0.3, 0.7, 0.0) == pytest.approx(0.21, abs=1e-14)
    assert gaussian_copula_cdf(0.3, 0.7, 1.0) == 0.3
    assert gaussian_copula_cdf(0.3, 0.8, -1.0) == pytest.approx(0.1, abs=1e-15)


@given(units, units, corrs)
@settings(max_examples=40, deadline=None)
def test_copula_cdf_frechet_bounds(u, v, c):
    val = gaussian_copula_cdf(u, v, c)
    assert max(u + v - 1.0, 0.0) - 1e-10 <= val <= min(u, v) + 1e-10


def test_copula_cdf_matches_transformed_oracle():
    for u, v, c in [(0.2, 0.6, 0.5), (0.9, 0.9, -0.4), (0.05, 0.5, 0.85)]:
        expected = bvn_cdf_dblquad(
            float(std_normal_quantile(u)), float(std_normal_quantile(v)), c)
        assert gaussian_copula_cdf(u, v, c) == pytest.approx(expected, abs=5e-10)


def test_density_closed_form_values():
    assert gaussian_copula_density(0.5, 0.5, 0.5) == pytest.approx(
        1.0 / math.sqrt(0.75), abs=1e-14)
    assert gaussian_copula_density(0.5, 0.5, 0.0) == 1.0
    x = float(std_normal_quantile(0.25))
    c = 0.6
    omc2 = 1.0 - c * c
    expected = math.exp(
        -(c * c * x * x + c * c * x * x - 2 * c * x * x) / (2 * omc2)
    ) / math.sqrt(omc2)
    assert gaussian_copula_density(0.25, 0.25, c) == pytest.approx(expected, rel=1e-13)


def test_density_vectorized_and_symmetric(rng):
    u = rng.uniform(0.01, 0.99, size=50)
    v = rng.uniform(0.01, 0.99, size=50)
    d1 = gaussian_copula_density(u, v, 0.42)
    d2 = gaussian_copula_density(v, u, 0.42)
    assert d1.shape == (50,)
    assert np.allclose(d1, d2, rtol=0, atol=0)
    assert np.all(d1 > 0)


def test_density_integrates_to_cell_mass():
    # consistency of the density formula with the CDF reduction, via 2-D
    # quadrature in copula coordinates over an interior cell
    c = 0.55
    u_lo, u_hi, v_lo, v_hi = 0.2, 0.4, 0.6, 0.8
    mass, _ = dblquad(
        lambda vv, uu: float(gaussian_copula_density(uu, vv, c)),
        u_lo, u_hi, v_lo, v_hi, epsabs=1e-12, epsrel=1e-10)
    via_cdf = (
        gaussian_copula_cdf(u_hi, v_hi, c)
        - gaussian_copula_cdf(u_lo, v_hi, c)
        - gaussian_copula_cdf(u_hi, v_lo, c)
        + gaussian_copula_cdf(u_lo, v_lo, c)
    )
    assert mass == pytest.approx(via_cdf, abs=1e-9)


def test_grid_uniform_margins_and_total():
    grid = gaussian_grid(0.5, 8)
    assert grid.sample_count == 0
    assert np.max(np.abs(grid.density.sum(axis=0) - 1 / 8)) < 1e-12
    assert np.max(np.abs(grid.density.sum(axis=1) - 1 / 8)) < 1e-12
    assert grid.density.sum() == pytest.approx(1.0, abs=1e-12)
    assert grid.cumulative[8, 8] == pytest.approx(1.0, abs=1e-12)
    assert np.all(grid.cumulative[0, :] == 0.0)
    assert np.all(grid.cumulative[:, 0] == 0.0)


def test_grid_symmetry_exact():
    grid = gaussian_grid(-0.35, 6)
    assert np.array_equal(grid.density, grid.density.T)
    assert np.array_equal(grid.cumulative, grid.cumulative.T)


def test_grid_independent_case_is_exact_product():
    grid = gaussian_grid(0.0, 8)
    assert np.all(grid.density == 1.0 / 64.0)


def test_grid_degenerate_cases():
    diag = gaussian_grid(1.0, 5)
    assert np.allclose(np.diag(diag.density), 0.2, atol=1e-15)
    assert diag.density.sum() == pytest.approx(1.0, abs=1e-12)
    anti = gaussian_grid(-1.0, 5)
    assert np.allclose(np.diag(np.fliplr(anti.density)), 0.2, atol=1e-15)


def test_grid_matches_pointwise_cdf():
    grid = gaussian_grid(0.7, 4)
    for i in range(1, 5):
        for j in range(1, 5):
            assert grid.cumulative[i, j] == pytest.approx(
                gaussian_copula_cdf(i / 4, j / 4, 0.7), abs=1e-12)


@pytest.mark.parametrize("m", [3, 10])
@pytest.mark.parametrize("c", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_grid_cumulative_is_pointwise_cdf_bit_for_bit(c, m):
    cumulative = gaussian_grid(c, m).cumulative
    expect = np.array([[gaussian_copula_cdf(i / m, j / m, c) for j in range(m + 1)]
                       for i in range(m + 1)])
    assert cumulative.tobytes() == expect.tobytes()


def test_average_gaussian_density_explicit_mean():
    corr = np.array([
        [1.0, 0.2, 0.5],
        [0.2, 1.0, 0.8],
        [0.5, 0.8, 1.0],
    ])
    avg = average_gaussian_density(corr, 5)
    ref = (
        gaussian_grid(0.2, 5).density
        + gaussian_grid(0.5, 5).density
        + gaussian_grid(0.8, 5).density
    ) / 3.0
    assert np.allclose(avg.density, ref, rtol=0, atol=1e-15)
    assert avg.pair_count == 3


def test_average_gaussian_density_memoizes_rounded():
    base = np.array([
        [1.0, 0.2, 0.5],
        [0.2, 1.0, 0.8],
        [0.5, 0.8, 1.0],
    ])
    wobbled = base.copy()
    wobbled[0, 1] = wobbled[1, 0] = 0.2000004
    a = average_gaussian_density(base, 4)
    b = average_gaussian_density(wobbled, 4)
    assert np.array_equal(a.density, b.density)


def factor_correlations(k):
    """Correlation matrix of a one-factor panel with loadings spread over [0.1, 0.95]:
    pair (i, j) has b_i * b_j, so hundreds of distinct 3-decimal values."""
    loadings = np.linspace(0.1, 0.95, k)
    corr = np.outer(loadings, loadings)
    np.fill_diagonal(corr, 1.0)
    return corr


@pytest.mark.parametrize("m", [10, 50])
def test_average_gaussian_density_in_blocks_matches_one_call(monkeypatch, m):
    corr = factor_correlations(40)  # 780 pairs, 476 distinct rounded correlations
    density, cumulative = one_call_gaussian_density(corr, m)
    # the default budget (one block at m = 10), one correlation a block, and blocks of 7
    for cells in (gaussian._BASELINE_BLOCK_CELLS, 1, 7 * (m + 1) ** 2):
        monkeypatch.setattr(gaussian, "_BASELINE_BLOCK_CELLS", cells)
        grid = average_gaussian_density(corr, m)
        assert grid.density.tobytes() == density.tobytes(), cells
        assert grid.cumulative.tobytes() == cumulative.tobytes(), cells
        assert grid.resolution == m and grid.pair_count == 780


def test_average_gaussian_density_peak_memory_is_bounded():
    corr = factor_correlations(500)
    iu = np.triu_indices(500, 1)
    assert np.unique(np.round(corr[iu], 3)).size == 880
    average_gaussian_density(corr[:3, :3], 100)  # warm up, the quantile's import included
    tracemalloc.start()
    try:
        average_gaussian_density(corr, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one call over all 880 distinct correlations peaks near 170 MiB on this matrix
    assert peak < 40 * 2**20, peak / 2**20


def test_difference_map_zero_against_itself():
    corr = np.array([[1.0, 0.6], [0.6, 1.0]])
    gauss = average_gaussian_density(corr, 6)
    fake = difference_map(gauss, corr)
    assert isinstance(fake, DifferenceGrid)
    assert np.max(np.abs(fake.values)) < 1e-15


def test_difference_map_large_sample_small_residual():
    x, y = sample_bivariate_gaussian(0.5, 200000, seed=7)
    emp = empirical_copula_density(x, y, 5)
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    diff = difference_map(emp, corr)
    assert np.max(np.abs(diff.values)) < 0.01
    # residuals are signed and sum to ~0 since both sides sum to 1
    assert abs(diff.values.sum()) < 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_difference_map_finds_the_student_t_excess_in_both_corners(seed):
    # the paper's headline as ``diff`` shows it: K=10 equicorrelated t returns
    # (nu=4, rho=0.5) put more mass in the joint-tail cells than the Gaussian
    # baseline at their measured correlations (d about 0.0055-0.0067 at m=10)
    k, t = 10, 20_000
    stamps, dates = synthetic_timestamps(TradingCalendar(), "2007-01-02", t, 30)
    panel = ReturnMatrix(asset_ids=[f"T{n}" for n in range(k)], interval=30,
                         returns=student_t_panel(k, t, 0.5, 4, seed),
                         timestamps=stamps, session_dates=dates)
    grid = average_pairwise_density(panel, 10)
    corners = ([0, -1], [0, -1])
    excess = difference_map(grid, pearson_matrix(panel)).values[corners]
    # 3 binomial standard deviations of one pair's corner mass from T draws (about
    # 0.0041); the mean over the 45 pairs spreads no more than one pair
    mass = grid.density[corners]
    bound = 3.0 * np.sqrt(mass * (1.0 - mass) / t)
    assert np.all(excess > bound), (excess, bound)


def test_difference_map_pair_count_mismatch():
    x, y = sample_bivariate_gaussian(0.3, 500, seed=1)
    emp = empirical_copula_density(x, y, 4)
    three = np.array([
        [1.0, 0.3, 0.3],
        [0.3, 1.0, 0.3],
        [0.3, 0.3, 1.0],
    ])
    with pytest.raises(ValueError):
        difference_map(emp, three)


def test_write_difference_csv_permille():
    corr = np.array([[1.0, 0.4], [0.4, 1.0]])
    x, y = sample_bivariate_gaussian(0.4, 2000, seed=3)
    emp = empirical_copula_density(x, y, 3)
    diff = difference_map(emp, corr)
    buf = io.StringIO()
    write_difference_csv(diff, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "i,j,u_hi,v_hi,d_permille"
    assert len(lines) == 10
    for line in lines[1:]:
        i, j, _u, _v, d = line.split(",")
        assert float(d) == diff.values[int(i) - 1, int(j) - 1] * 1000.0


@pytest.mark.parametrize("m", [10, 20, 50])
def test_grid_matches_quad_oracle(m):
    # the kernel against the 1-D conditional-CDF quadrature
    z = [float(q) for q in std_normal_quantile(np.arange(1, m) / m)]
    for c in (-0.99, -0.5, 0.0, 0.3, 0.9, 0.99):
        grid = gaussian_grid(c, m)
        ref = np.zeros((m - 1, m - 1))
        for i in range(m - 1):
            for j in range(i, m - 1):
                ref[i, j] = ref[j, i] = bvn_cdf_quad(z[i], z[j], c)
        assert np.max(np.abs(grid.cumulative[1:m, 1:m] - ref)) < 1e-10, c


def test_cdf_matches_quad_oracle_random(rng):
    x = rng.uniform(-5.0, 5.0, size=1000)
    y = rng.uniform(-5.0, 5.0, size=1000)
    c = rng.uniform(-0.999, 0.999, size=1000)
    got = bivariate_normal_cdf(x, y, c)
    ref = np.array([bvn_cdf_quad(float(a), float(b), float(r)) for a, b, r in zip(x, y, c)])
    assert np.max(np.abs(got - ref)) < 1e-10


def test_cdf_array_equals_scalar_calls_and_is_symmetric(rng):
    x = np.concatenate([rng.normal(scale=2.0, size=300), [0.0, -0.0, 0.0, 1.5, -45.0, 3.0]])
    y = np.concatenate([rng.normal(scale=2.0, size=300), [0.0, 0.7, -0.7, -0.0, 0.2, 45.0]])
    c = np.concatenate([rng.uniform(-1.0, 1.0, size=300), [0.6, -0.3, 0.9, 0.2, 0.5, -0.4]])
    c[:10] = [1.0, -1.0, 0.0, 0.0, 1.0, -1.0, 0.99999, -0.99999, 0.5, -0.5]
    got = bivariate_normal_cdf(x, y, c)
    assert got.shape == x.shape
    scalar = np.array([bivariate_normal_cdf(float(a), float(b), float(r)) for a, b, r in zip(x, y, c)])
    assert np.array_equal(got, scalar)
    assert np.array_equal(got, bivariate_normal_cdf(y, x, c))
    assert isinstance(bivariate_normal_cdf(0.1, 0.2, 0.3), float)
    assert bivariate_normal_cdf(x[:, None], y[None, :], 0.4).shape == (306, 306)


def test_cdf_with_a_zero_argument_matches_quad_oracle():
    # a zero argument of either sign gives the same value
    for zero in (0.0, -0.0):
        for other in (-1.3, 0.7):
            for c in (-0.3, 0.6):
                expected = bvn_cdf_quad(0.0, other, c)
                assert abs(bivariate_normal_cdf(zero, other, c) - expected) < 1e-10
                assert abs(bivariate_normal_cdf(other, zero, c) - expected) < 1e-10


def test_cdf_array_input_validated():
    with pytest.raises(ValueError):
        bivariate_normal_cdf(np.array([0.0, np.nan]), 0.0, 0.5)
    with pytest.raises(ValueError):
        bivariate_normal_cdf(0.0, 0.0, -1.0001)
    with pytest.raises(ValueError):
        bivariate_normal_cdf(0.0, 0.0, np.array([0.5, 1.5]))


def test_copula_cdf_array_equals_scalar_calls(rng):
    u = np.concatenate([rng.uniform(size=100), [0.0, 1.0, 0.3, 1.0, 0.0, 0.4, 0.6]])
    v = np.concatenate([rng.uniform(size=100), [0.5, 0.2, 1.0, 1.0, 0.0, 0.4, 0.6]])
    c = np.concatenate([rng.uniform(-1.0, 1.0, size=100), [0.5, -0.5, 0.2, 0.0, 1.0, 1.0, -1.0]])
    got = gaussian_copula_cdf(u, v, c)
    scalar = np.array([gaussian_copula_cdf(float(a), float(b), float(r)) for a, b, r in zip(u, v, c)])
    assert np.array_equal(got, scalar)
    assert np.array_equal(gaussian_copula_cdf(0.1, 0.1, c), [gaussian_copula_cdf(0.1, 0.1, float(r)) for r in c])
    with pytest.raises(ValueError):
        gaussian_copula_cdf(np.array([0.5, 1.2]), 0.5, 0.3)


def _bvn_mpmath(h, k, c):
    """Conditional-CDF integral at 40 digits, split where the integrand turns over."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        h, k, c = mp.mpf(h), mp.mpf(k), mp.mpf(c)
        scale = mp.sqrt((1 - c) * (1 + c))
        pivot = k / c
        points = [p for p in (pivot - mp.mpf("0.05"), pivot, pivot + mp.mpf("0.05")) if p < h]
        value = mp.quad(
            lambda t: mp.npdf(t) * mp.ncdf((k - c * t) / scale), [-mp.inf, *points, h]
        )
        return float(value)


@pytest.mark.parametrize(
    "x,y,expected",
    [(0.5, 0.5, 0.38292492254802621), (0.114, 0.2666, 0.15049252546057932)],
)
def test_cdf_near_countermonotone_matches_mpmath(x, y, expected):
    # the single-integral quadrature was 6.3e-4 off at (0.5, 0.5, -0.99999)
    # without tripping its error estimate
    reference = _bvn_mpmath(x, y, -0.99999)
    assert reference == pytest.approx(expected, abs=1e-15)
    assert bivariate_normal_cdf(x, y, -0.99999) == pytest.approx(reference, abs=1e-13)
    assert bivariate_normal_cdf(y, x, -0.99999) == pytest.approx(reference, abs=1e-13)


def test_cdf_matches_owens_t_oracle(rng):
    # the Gauss-Legendre kernel against the Owen's T closed form it replaced
    n = 200_000
    x = rng.uniform(-6.0, 6.0, size=n)
    y = rng.uniform(-6.0, 6.0, size=n)
    c = rng.uniform(-0.99999, 0.99999, size=n)
    gap = np.abs(bivariate_normal_cdf(x, y, c) - bvn_cdf_owens_t(x, y, c))
    assert gap.max() < 2e-15


@pytest.mark.parametrize("m", [10, 50])
def test_grid_matches_mpmath(m):
    # both branches of the kernel (|c| < 0.925 and above) at nodes from the
    # first to the last interior one, on and off the diagonal
    z = std_normal_quantile(np.arange(1, m) / m)
    picks = [1, m // 2, m - 1]
    for c in (-0.95, 0.5, 0.95):
        cumulative = gaussian_grid(c, m).cumulative
        for a, i in enumerate(picks):
            for j in picks[a:]:
                reference = _bvn_mpmath(float(z[i - 1]), float(z[j - 1]), c)
                assert abs(cumulative[i, j] - reference) < 1e-15, (c, i, j)


def test_univariate_cdf_matches_mpmath():
    # Phi read through the truncation k >= 40, where Phi2(x, 41; c) = Phi(x);
    # relative error in the lower tail (scipy's ndtr reaches 1.98e-13 on this grid)
    mp = pytest.importorskip("mpmath")
    x = np.linspace(-37.0, 8.0, 901)
    got = bivariate_normal_cdf(x, 41.0, 0.3)
    with mp.workdps(40):
        reference = np.array([float(mp.ncdf(mp.mpf(float(v)))) for v in x])
    assert np.max(np.abs(got - reference) / reference) < 2.5e-13
