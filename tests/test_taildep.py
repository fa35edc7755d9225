"""Tail coefficients, correlation summaries, and rolling-window reports."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import student_t_panel, window_reports_by_pair
from scipy import stats

from copuladyn import (
    CorrelationMatrix,
    ReturnMatrix,
    SynthSpec,
    TradingCalendar,
    average_pairwise_density,
    empirical_copula_density,
    gaussian_copula_cdf,
    gaussian_tail_curve,
    lower_tail,
    mean_correlation,
    partition_windows,
    pearson_matrix,
    sample_panel,
    synthetic_timestamps,
    tail_curve,
    upper_tail,
    upper_tail_survival,
    window_report,
    windowed_reports,
    write_relation_csv,
    write_tail_curve_csv,
)
from copuladyn.taildep import UPPER_TAIL_CONVENTIONS

ALPHAS = (0.02, 0.04, 0.1, 0.25)


def tri_corr(a, b, c):
    m = np.array([[1.0, a, b], [a, 1.0, c], [b, c, 1.0]])
    return CorrelationMatrix(values=m)


def test_tail_values_on_grid_nodes():
    x = np.arange(100.0)
    grid = empirical_copula_density(x, x, 50)  # comonotone, nodes at k/50
    # alpha on a node: Cop(a, a) = a for the comonotone copula
    assert lower_tail(grid, 0.02) == pytest.approx(0.02, abs=1e-15)
    assert lower_tail(grid, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert upper_tail(grid, 0.1) == pytest.approx(0.1, abs=1e-12)
    assert upper_tail_survival(grid, 0.1) == pytest.approx(0.1, abs=1e-12)


def test_tail_values_countermonotone():
    x = np.arange(100.0)
    grid = empirical_copula_density(x, -x, 50)
    assert lower_tail(grid, 0.25) == 0.0
    # literal upper: 1 - Cop(0.75, 0.75) = 1 - 0.5 = 0.5
    assert upper_tail(grid, 0.25) == pytest.approx(0.5, abs=1e-12)
    # joint exceedance of opposite tails is impossible
    assert upper_tail_survival(grid, 0.25) == 0.0


def test_tail_interpolates_off_nodes():
    x = np.arange(100.0)
    grid = empirical_copula_density(x, x, 4)  # nodes at 0.25 steps
    # bilinear inside the corner cell: (0.1/0.25)^2 * C(0.25, 0.25) = 0.04
    assert lower_tail(grid, 0.1) == pytest.approx(0.04, abs=1e-12)
    # node-aligned levels are exact
    assert lower_tail(grid, 0.25) == pytest.approx(0.25, abs=1e-15)


def test_alpha_validation():
    grid = empirical_copula_density(np.arange(10.0), np.arange(10.0), 5)
    for bad in (0.0, -0.1, 0.51, 1.0):
        with pytest.raises(ValueError):
            lower_tail(grid, bad)
        with pytest.raises(ValueError):
            upper_tail(grid, bad)


def test_tail_curve_conventions():
    x = np.arange(200.0)
    grid = empirical_copula_density(x, -x, 50)
    lit = tail_curve(grid, ALPHAS, upper_convention="literal")
    srv = tail_curve(grid, ALPHAS, upper_convention="survival")
    assert np.array_equal(lit.lower, srv.lower)
    assert np.all(lit.upper >= srv.upper)
    with pytest.raises(ValueError):
        tail_curve(grid, ALPHAS, upper_convention="other")


def test_tail_monotone_in_alpha(rng):
    a = rng.normal(size=5000)
    b = 0.6 * a + 0.8 * rng.normal(size=5000)
    grid = empirical_copula_density(a, b, 50)
    curve = tail_curve(grid, ALPHAS)
    assert np.all(np.diff(curve.lower) >= -1e-12)
    assert np.all(np.diff(curve.upper) >= -1e-12)


def test_pearson_matrix_exact_cases():
    mat = sample_panel(SynthSpec(kind="comonotone", assets=3, length=50, seed=1))
    corr = pearson_matrix(mat)
    # scaled copies of one series correlate exactly
    assert np.allclose(corr.values, 1.0, atol=1e-12)
    assert corr.asset_ids == mat.asset_ids
    anti = sample_panel(SynthSpec(kind="countermonotone", assets=2, length=50, seed=1))
    c2 = pearson_matrix(anti)
    assert c2.values[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_pearson_matrix_rejects_dead_series():
    mat = sample_panel(SynthSpec(kind="gaussian", assets=2, length=30, seed=0))
    frozen = mat.returns.copy()
    frozen[1, :] = 7.0
    dead = type(mat)(
        asset_ids=list(mat.asset_ids),
        interval=mat.interval,
        returns=frozen,
        timestamps=mat.timestamps,
        session_dates=mat.session_dates,
    )
    with pytest.raises(ValueError, match="SYN001"):
        pearson_matrix(dead)


def test_correlation_matrix_validation():
    with pytest.raises(ValueError):
        CorrelationMatrix(values=np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        CorrelationMatrix(values=np.array([[0.9, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        CorrelationMatrix(values=np.array([[1.0, 1.5], [1.5, 1.0]]))


def test_mean_correlation_explicit():
    corr = tri_corr(0.2, 0.5, 0.8)
    assert mean_correlation(corr) == pytest.approx(0.5, abs=1e-15)


def gaussian_tail_at(corr, alpha):
    return gaussian_tail_curve(corr, [alpha]).lower[0]


def test_gaussian_tail_curve_matches_dblquad_mean():
    corr = tri_corr(0.2, 0.5, 0.8)
    # frozen mean of the 2-D quadrature oracle over c in {0.2, 0.5, 0.8}
    assert gaussian_tail_at(corr, 0.1) == pytest.approx(
        0.03528017166122672, abs=5e-10)
    assert gaussian_tail_at(corr, 0.25) == pytest.approx(
        0.12434473308316885, abs=5e-10)


def test_gaussian_tail_curve_equals_explicit_mean():
    corr = tri_corr(0.1, 0.3, 0.6)
    expect = np.mean([gaussian_copula_cdf(0.04, 0.04, c) for c in (0.1, 0.3, 0.6)])
    assert gaussian_tail_at(corr, 0.04) == pytest.approx(expect, abs=1e-14)


def test_gaussian_tail_curve_rounding_memoization():
    base = tri_corr(0.2, 0.5, 0.8)
    wobble = tri_corr(0.2000004, 0.5, 0.8)
    assert gaussian_tail_at(wobble, 0.1) == gaussian_tail_at(
        base, 0.1)


def test_gaussian_tail_curve_symmetric():
    curve = gaussian_tail_curve(tri_corr(0.2, 0.5, 0.8), ALPHAS)
    assert np.array_equal(curve.lower, curve.upper)
    assert np.all(np.diff(curve.lower) > 0)


def make_panel(days, assets=3, seed=0, correlation=0.4):
    # 13 thirty-minute returns per trading day
    return sample_panel(
        SynthSpec(kind="gaussian", assets=assets, length=days * 13, seed=seed,
                  correlation=correlation))


def test_partition_counts():
    assert len(partition_windows(make_panel(20), 10)) == 2
    assert len(partition_windows(make_panel(25), 10)) == 2  # trailing 5 days dropped
    assert len(partition_windows(make_panel(9), 3)) == 3


def test_partition_window_contents():
    mat = make_panel(6)
    wins = partition_windows(mat, 3)
    assert len(wins) == 2
    assert wins[0].n_observations == 39
    assert wins[1].n_observations == 39
    # windows abut without overlap and preserve column order
    recombined = np.hstack([w.returns for w in wins])
    assert np.array_equal(recombined, mat.returns)
    d0 = np.unique(wins[0].session_dates)
    d1 = np.unique(wins[1].session_dates)
    assert d0.size == 3 and d1.size == 3
    assert d0[-1] < d1[0]


def test_partition_rejects_short_panel():
    with pytest.raises(ValueError, match="window"):
        partition_windows(make_panel(4), 10)
    with pytest.raises(ValueError):
        partition_windows(make_panel(4), 0)


def test_window_report_identical_series():
    # T = 1300 makes alpha * T integral for every alpha in ALPHAS, and
    # resolution 100 puts each alpha on a grid node, so the comonotone tail
    # is exact rather than quantized by the sample size
    mat = sample_panel(SynthSpec(kind="comonotone", assets=3, length=1300, seed=2))
    rep = window_report(mat, 100, ALPHAS)
    assert rep.mean_correlation == pytest.approx(1.0, abs=1e-12)
    assert rep.sample_count == 1300
    for idx, alpha in enumerate(ALPHAS):
        assert rep.tail.lower[idx] == pytest.approx(alpha, abs=1e-12)
    # Gaussian tail at c = 1 is the comonotone bound: min(a, a) = a
    for idx, alpha in enumerate(ALPHAS):
        assert rep.gaussian_tail.lower[idx] == pytest.approx(alpha, abs=1e-12)
    assert rep.window_start == mat.period[0]
    assert rep.window_end == mat.period[1]


def test_windows_track_correlation_level():
    # higher equicorrelation must raise both the measured mean correlation
    # and the lower tail mass
    lo = window_report(make_panel(40, seed=3, correlation=0.15), 20, (0.25,))
    hi = window_report(make_panel(40, seed=3, correlation=0.75), 20, (0.25,))
    assert hi.mean_correlation > lo.mean_correlation + 0.3
    assert hi.tail.lower[0] > lo.tail.lower[0]
    assert hi.gaussian_tail.lower[0] > lo.gaussian_tail.lower[0]


def test_write_relation_csv_shape_and_values():
    mat = make_panel(8, seed=13)
    reports = windowed_reports(mat, 4, 10, ALPHAS)
    buf = io.StringIO()
    write_relation_csv(reports, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ("window_start,window_end,mean_corr,alpha,"
                        "lambda_lower,lambda_upper,lambda_gauss")
    assert len(lines) == 1 + 2 * len(ALPHAS)
    first = lines[1].split(",")
    assert first[0] == reports[0].window_start.isoformat()
    assert float(first[2]) == reports[0].mean_correlation
    assert float(first[3]) == 0.02
    assert float(first[4]) == reports[0].tail.lower[0]
    assert float(first[5]) == reports[0].tail.upper[0]
    assert float(first[6]) == reports[0].gaussian_tail.lower[0]


def test_write_tail_curve_csv_roundtrip(tmp_path):
    grid = empirical_copula_density(*make_panel(10, assets=2, seed=5).returns, 10)
    curve = tail_curve(grid, ALPHAS)
    buf = io.StringIO()
    write_tail_curve_csv(curve, buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "alpha,lambda_lower,lambda_upper"
    assert lines[-1] == "" and len(lines) == 2 + len(ALPHAS)
    for idx, line in enumerate(lines[1:-1]):
        a, lo, up = (float(v) for v in line.split(","))
        assert (a, lo, up) == (curve.alphas[idx], curve.lower[idx], curve.upper[idx])
    write_tail_curve_csv(curve, tmp_path / "tail_curve.csv")
    assert (tmp_path / "tail_curve.csv").read_text() == buf.getvalue()


def test_tail_curve_finds_the_student_t_excess_over_the_gaussian():
    # the paper's headline: at the same correlation, joint lower tails are heavier
    # than a Gaussian copula allows. K=10 equicorrelated t returns, nu=4, rho=0.5
    k, t, rho, nu = 10, 20_000, 0.5, 4
    alphas = [0.02, 0.05, 0.1]  # grid nodes at m=100, so nothing is interpolated
    stamps, dates = synthetic_timestamps(TradingCalendar(), "2007-01-02", t, 30)
    panel = ReturnMatrix(asset_ids=[f"T{n}" for n in range(k)], interval=30,
                         returns=student_t_panel(k, t, rho, nu, seed=1),
                         timestamps=stamps, session_dates=dates)
    measured = tail_curve(average_pairwise_density(panel, 100), alphas).lower
    corr = pearson_matrix(panel)
    gaussian = gaussian_tail_curve(corr, alphas).lower
    # C_t(a, a) = P(both t marginals at or below their a-quantile)
    t_copula = stats.multivariate_t(shape=[[1.0, rho], [rho, 1.0]], df=nu, seed=1)
    exact = np.array([t_copula.cdf([stats.t.ppf(a, nu)] * 2) for a in alphas])
    # 3 binomial standard deviations of one pair's estimate from T draws at C_t; a
    # mean over the 45 identically distributed pairs spreads no more than one pair
    bound = 3.0 * np.sqrt(exact * (1.0 - exact) / t)
    assert abs(mean_correlation(corr) - rho) < 0.02
    assert np.allclose(exact, [0.00604, 0.01695, 0.03839], atol=5e-5)
    assert np.all(np.abs(measured - exact) < bound), (measured, exact, bound)
    # the Gaussian copula at the measured correlations misses the excess by more
    # than the sampling bound (0.0122 against 0.0169 at a=0.05)
    assert np.all(measured - gaussian > bound), (measured, gaussian, bound)


@st.composite
def window_panels(draw):
    """(panel, window days, m, alphas, upper convention) for ``windowed_reports``.

    Sessions hold 1 to 4 returns each, so windows differ in length as when an asset
    misses its opening print, and a trailing partial window may be dropped. The values
    are heavy with ties (flat prices give runs of exact zeros), continuous, or the same
    row for every asset (comonotone, c = 1). Some alphas sit on grid nodes, some off them.
    """
    k = draw(st.integers(1, 6))  # one asset forms no pair, which is a fault
    m = draw(st.integers(2, 12))
    window_days = draw(st.integers(1, 3))
    n_days = window_days * draw(st.integers(1, 4)) + draw(st.integers(0, window_days - 1))
    per_day = draw(st.lists(st.integers(1, 4), min_size=n_days, max_size=n_days))
    t = sum(per_day)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "flat", "continuous", "comonotone"]))
    if kind == "ties":
        returns = rng.integers(-2, 3, size=(k, t)) * 1e-3
    elif kind == "flat":
        returns = np.where(rng.random((k, t)) < 0.7, 0.0, rng.normal(0.0, 1e-3, (k, t)))
    elif kind == "continuous":
        returns = rng.normal(0.0, 1e-3, (k, t))
    else:
        returns = np.tile(rng.normal(0.0, 1e-3, t), (k, 1))
    days = np.busday_offset(np.datetime64("2024-01-02"), np.arange(n_days))
    matrix = ReturnMatrix(
        asset_ids=[f"S{i}" for i in range(k)],
        interval=30,
        returns=returns,
        timestamps=np.repeat(days.astype("datetime64[s]"), per_day),
        session_dates=np.repeat(days, per_day),
    )
    nodes = [i / m for i in range(1, m // 2 + 1)]
    alpha = st.sampled_from(nodes) | st.floats(1e-3, 0.5, exclude_min=True)
    alphas = draw(st.lists(alpha, min_size=1, max_size=4))
    return matrix, window_days, m, alphas, draw(st.sampled_from(UPPER_TAIL_CONVENTIONS))


def _reports_or_fault(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def _report_bits(rep) -> tuple:
    arrays = (rep.tail.alphas, rep.tail.lower, rep.tail.upper, rep.gaussian_tail.alphas,
              rep.gaussian_tail.lower, rep.gaussian_tail.upper, rep.grid.density,
              rep.grid.cumulative, np.float64(rep.mean_correlation))
    grid = rep.grid
    return (rep.window_start, rep.window_end, rep.sample_count, grid.resolution,
            grid.sample_count, grid.pair_count, *(np.asarray(a).tobytes() for a in arrays))


@settings(max_examples=300, deadline=None)
@given(window_panels())
def test_windowed_reports_equal_window_report_bit_for_bit(case):
    # windowed_reports, window_report on each window, and gaussian_tail_curve of each
    # window's Pearson matrix all match the per-pair oracle bit for bit, or raise its fault
    matrix, window_days, m, alphas, convention = case
    want = _reports_or_fault(
        lambda: window_reports_by_pair(matrix, window_days, m, alphas, convention))
    got = _reports_or_fault(lambda: windowed_reports(matrix, window_days, m, alphas, convention))
    singles = _reports_or_fault(lambda: [window_report(w, m, alphas, convention)
                                         for w in partition_windows(matrix, window_days)])
    if isinstance(want, str):  # one asset, a zero-variance window, or one of a single return
        assert got == singles == want
        return
    bits = [_report_bits(r) for r in want]
    assert [_report_bits(r) for r in got] == bits
    assert [_report_bits(r) for r in singles] == bits
    for window, rep in zip(partition_windows(matrix, window_days), want):
        curve = gaussian_tail_curve(pearson_matrix(window), alphas)
        assert [np.asarray(a).tobytes() for a in (curve.alphas, curve.lower, curve.upper)] == [
            a.tobytes() for a in (rep.gaussian_tail.alphas, rep.gaussian_tail.lower,
                                  rep.gaussian_tail.upper)]


def test_windowed_reports_name_the_first_zero_variance_window():
    mat = make_panel(6)
    returns = mat.returns.copy()
    returns[1, 2 * 13:] = 0.0  # the second asset stops moving after two days
    dead = ReturnMatrix(mat.asset_ids, mat.interval, returns, mat.timestamps, mat.session_dates)
    second = partition_windows(dead, 2)[1]
    start, end = second.period
    message = f"zero-variance series in sessions {start} to {end}: {mat.asset_ids[1]}"
    with pytest.raises(ValueError) as single:
        window_report(second, 5, ALPHAS)
    with pytest.raises(ValueError) as batched:
        windowed_reports(dead, 2, 5, ALPHAS)
    assert str(batched.value) == str(single.value) == message


@pytest.mark.parametrize("days, column", [
    (["01-02", "01-03", "01-02", "01-03", "01-04", "01-05"], 2),
    (["01-02", "01-02", "01-04", "01-04", "01-03", "01-03"], 4),
])
def test_return_matrix_refuses_session_dates_out_of_order(days, column):
    # partition_windows would otherwise build wrong windows, or fail with a misleading fault
    dates = np.array([f"2024-{d}" for d in days], dtype="datetime64[D]")
    message = (f"session_dates must not decrease: column {column} ({dates[column]}) "
               f"follows {dates[column - 1]}")
    with pytest.raises(ValueError) as fault:
        ReturnMatrix(["A", "B"], 30, np.arange(12.0).reshape(2, 6),
                     dates.astype("datetime64[s]"), dates)
    assert str(fault.value) == message
