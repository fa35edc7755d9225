"""Synthetic panels: determinism, dependence targets, price-file roundtrip."""

import datetime as dt
import io
import tracemalloc

import numpy as np
import pytest

from copuladyn import (
    SynthSpec,
    TradingCalendar,
    compute_returns,
    load_prices,
    pearson_matrix,
    sample_panel,
    synthetic_timestamps,
    write_price_csv,
)
from oracles import (
    equicorrelated_gaussian,
    loop_cumulative,
    rank_transform,
    sample_bivariate_gaussian,
)

CAL = TradingCalendar()


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(kind="weird", assets=2, length=10, seed=0)
    with pytest.raises(ValueError):
        SynthSpec(kind="gaussian", assets=1, length=10, seed=0)
    with pytest.raises(ValueError):
        SynthSpec(kind="gaussian", assets=2, length=0, seed=0)
    with pytest.raises(ValueError):
        SynthSpec(kind="gaussian", assets=2, length=10, seed=0, correlation=1.5)
    with pytest.raises(ValueError):
        SynthSpec(kind="countermonotone", assets=3, length=10, seed=0)


@pytest.mark.parametrize("k,t,c,seed", [
    (2, 1, 0.0, 0),
    (3, 17, 0.0, 4),
    (5, 400, 0.3, 1),
    (12, 250, 0.95, 7),
    (4, 60, 1.0, 2),
])
def test_gaussian_panel_matches_two_temporary_oracle(k, t, c, seed):
    got = sample_panel(SynthSpec("gaussian", k, t, seed, c)).returns
    want = equicorrelated_gaussian(k, t, c, seed)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included


def test_sample_panel_peak_memory_per_element():
    k, t = 20, 6500
    sample_panel(SynthSpec("gaussian", 2, 10, 0, 0.3))  # one-off allocations of a first call
    tracemalloc.start()
    try:
        sample_panel(SynthSpec("gaussian", k, t, 1, 0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the panel is 8 bytes an element; two K x T temporaries would add 16 more
    assert peak < 12 * k * t, peak / (k * t)


def test_same_seed_is_bit_identical():
    spec = SynthSpec(kind="gaussian", assets=4, length=500, seed=99, correlation=0.3)
    a = sample_panel(spec)
    b = sample_panel(spec)
    assert np.array_equal(a.returns, b.returns)
    assert np.array_equal(a.timestamps, b.timestamps)
    c = sample_panel(SynthSpec(kind="gaussian", assets=4, length=500, seed=100,
                               correlation=0.3))
    assert not np.array_equal(a.returns, c.returns)


def test_timestamps_follow_session_grid():
    stamps, dates = synthetic_timestamps(CAL, "2007-01-02", 30, 30)
    assert stamps.size == 30 and dates.size == 30
    # 2007-01-02 is a Tuesday; 13 intervals per day, so 13 + 13 + 4
    assert str(stamps[0]) == "2007-01-02T10:00:00"
    assert str(stamps[12]) == "2007-01-02T16:00:00"
    assert str(stamps[13]) == "2007-01-03T10:00:00"
    assert str(dates[29]) == "2007-01-04"
    assert np.all(np.diff(stamps).astype(np.int64) > 0)
    assert CAL.in_session_mask(stamps).all()


def test_interval_longer_than_the_session_fails():
    quarter_hour = TradingCalendar(open_time=dt.time(9, 30), close_time=dt.time(9, 45))
    with pytest.raises(ValueError, match=r"^interval exceeds the trading session$"):
        synthetic_timestamps(quarter_hour, "2007-01-02", 10, 30)


def test_gaussian_panel_hits_target_correlation():
    spec = SynthSpec(kind="gaussian", assets=2, length=200_000, seed=42,
                     correlation=0.5)
    mat = sample_panel(spec)
    corr = pearson_matrix(mat)
    # sampling std of the correlation is (1 - c^2)/sqrt(T) ~ 0.0017
    assert abs(corr.values[0, 1] - 0.5) < 0.01
    t = mat.n_observations
    assert np.all(np.abs(mat.returns.mean(axis=1)) < 4.0 / np.sqrt(t))
    assert np.all(np.abs(mat.returns.var(axis=1) - 1.0) < 8.0 / np.sqrt(t))


def test_gaussian_panel_equicorrelated_many_assets():
    spec = SynthSpec(kind="gaussian", assets=6, length=100_000, seed=7,
                     correlation=0.35)
    corr = pearson_matrix(sample_panel(spec))
    off = corr.values[np.triu_indices(6, 1)]
    assert np.max(np.abs(off - 0.35)) < 0.02


def test_gaussian_panel_negative_equicorrelation():
    spec = SynthSpec(kind="gaussian", assets=3, length=150_000, seed=11,
                     correlation=-0.4)
    corr = pearson_matrix(sample_panel(spec))
    off = corr.values[np.triu_indices(3, 1)]
    assert np.max(np.abs(off - (-0.4))) < 0.02


def test_gaussian_panel_infeasible_negative_correlation():
    with pytest.raises(ValueError, match="infeasible"):
        sample_panel(SynthSpec(kind="gaussian", assets=3, length=10, seed=0,
                               correlation=-0.6))


def test_comonotone_panel_shares_ranks():
    mat = sample_panel(SynthSpec(kind="comonotone", assets=3, length=400, seed=5))
    r0 = rank_transform(mat.returns[0])
    for k in (1, 2):
        assert np.array_equal(r0, rank_transform(mat.returns[k]))
    assert loop_cumulative(mat.returns[0], mat.returns[1], 0.5, 0.5) == 0.5


def test_countermonotone_panel_reverses_ranks():
    mat = sample_panel(SynthSpec(kind="countermonotone", assets=2, length=400, seed=5))
    assert np.array_equal(mat.returns[1], -mat.returns[0])
    assert loop_cumulative(mat.returns[0], mat.returns[1], 0.5, 0.5) == 0.0


def test_independent_panel_uncorrelated():
    mat = sample_panel(SynthSpec(kind="independent", assets=3, length=100_000, seed=3))
    off = pearson_matrix(mat).values[np.triu_indices(3, 1)]
    assert np.max(np.abs(off)) < 0.02


def test_bivariate_sampler_degenerate_and_typical():
    x, y = sample_bivariate_gaussian(1.0, 1000, seed=2)
    assert np.array_equal(x, y)
    x, y = sample_bivariate_gaussian(-1.0, 1000, seed=2)
    assert np.array_equal(y, -x)
    x, y = sample_bivariate_gaussian(0.7, 200_000, seed=2)
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r - 0.7) < 0.01
    with pytest.raises(ValueError):
        sample_bivariate_gaussian(1.1, 10, seed=0)


def test_price_csv_roundtrip_recovers_scaled_returns():
    # 39 = 3 whole 13-interval sessions, so the roundtrip is column-exact
    spec = SynthSpec(kind="gaussian", assets=3, length=39, seed=21, correlation=0.4)
    mat = sample_panel(spec)
    buf = io.StringIO()
    write_price_csv(mat, CAL, buf, scale=1e-3)
    buf.seek(0)
    panel = load_prices(buf, CAL)
    back = compute_returns(panel, 30)
    assert back.asset_ids == mat.asset_ids
    assert back.returns.shape == mat.returns.shape
    assert np.array_equal(back.timestamps, mat.timestamps)
    assert np.allclose(back.returns, 1e-3 * mat.returns, rtol=1e-9, atol=1e-15)


def test_price_csv_partial_final_session_pads_flat():
    # a partial last session re-ingests with the final price carried to the
    # close: the real columns come back first, then exact zeros
    spec = SynthSpec(kind="gaussian", assets=2, length=15, seed=4, correlation=0.2)
    mat = sample_panel(spec)
    buf = io.StringIO()
    write_price_csv(mat, CAL, buf, scale=1e-3)
    buf.seek(0)
    back = compute_returns(load_prices(buf, CAL), 30)
    assert back.n_observations == 26  # two full sessions after padding
    assert np.allclose(back.returns[:, :15], 1e-3 * mat.returns,
                       rtol=1e-9, atol=1e-15)
    assert np.all(back.returns[:, 15:] == 0.0)


def test_price_csv_rejects_zero_crossing_scale():
    mat = sample_panel(SynthSpec(kind="gaussian", assets=2, length=100, seed=1,
                                 correlation=0.0))
    with pytest.raises(ValueError, match="scale"):
        write_price_csv(mat, CAL, io.StringIO(), scale=10.0)


def test_price_csv_prices_survive_text_roundtrip_exactly():
    mat = sample_panel(SynthSpec(kind="independent", assets=2, length=5, seed=8))
    buf = io.StringIO()
    write_price_csv(mat, CAL, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "timestamp,symbol,price"
    # repr() formatting: float(text) gives back the same double
    for line in lines[1:]:
        _ts, _sym, px = line.split(",")
        assert float(px) == float(repr(float(px)))
