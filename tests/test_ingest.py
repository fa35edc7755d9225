"""Price parsing, calendar filtering, and intraday return construction."""

import csv
import datetime as dt
import io
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from copuladyn import (
    CalendarError,
    PriceDataError,
    PricePanel,
    TradingCalendar,
    compute_returns,
    load_calendar,
    load_prices,
)
from copuladyn import ingest
from oracles import weekday_session_mask

CAL = TradingCalendar()


def csv_stream(rows):
    return io.StringIO("timestamp,symbol,price\n" + "\n".join(rows) + "\n")


def full_session_rows(symbol, day, prices):
    """One quote per 30-minute endpoint 09:30..16:00 (14 endpoints)."""
    assert len(prices) == 14
    out = []
    for k, p in enumerate(prices):
        minute = 9 * 60 + 30 + 30 * k
        out.append(f"{day}T{minute // 60:02d}:{minute % 60:02d}:00,{symbol},{p}")
    return out


def test_calendar_defaults_and_minutes():
    assert CAL.open_time == dt.time(9, 30)
    assert CAL.close_time == dt.time(16, 0)
    assert CAL.session_minutes == 390


def test_in_session_mask_boundaries():
    ts = np.array([
        "2024-01-03T09:29:59",  # Wednesday, before open
        "2024-01-03T09:30:00",
        "2024-01-03T12:00:00",
        "2024-01-03T16:00:00",
        "2024-01-03T16:00:01",
        "2024-01-06T12:00:00",  # Saturday
    ], dtype="datetime64[s]")
    assert CAL.in_session_mask(ts).tolist() == [False, True, True, True, False, False]


def test_holiday_excluded():
    cal = TradingCalendar(holidays=frozenset({dt.date(2024, 1, 4)}))
    ts = np.array(["2024-01-04T12:00:00", "2024-01-05T12:00:00"], dtype="datetime64[s]")
    assert cal.in_session_mask(ts).tolist() == [False, True]


# a holiday on a Monday, one on a Saturday, and one on each side of 1970-01-01
MASK_HOLIDAYS = frozenset({dt.date(2024, 1, 15), dt.date(2024, 1, 13), dt.date(1969, 12, 31),
                           dt.date(1970, 1, 2)})


@pytest.mark.parametrize("calendar", [
    TradingCalendar(),
    TradingCalendar(holidays=MASK_HOLIDAYS),
    TradingCalendar(open_time=dt.time(10, 15), close_time=dt.time(13, 45), holidays=MASK_HOLIDAYS),
], ids=["no-holidays", "holidays", "short-session"])
def test_in_session_mask_matches_weekday_reference(calendar):
    days = np.arange("1969-01-01", "2031-01-01", dtype="datetime64[D]").astype("datetime64[s]")
    open_s = calendar.open_time.hour * 3600 + calendar.open_time.minute * 60
    close_s = calendar.close_time.hour * 3600 + calendar.close_time.minute * 60
    # every day of 1969-2030 at midnight, around both bounds, midday and the last second
    clock = np.array([0, open_s - 1, open_s, open_s + 1, 12 * 3600 + 1,
                      close_s - 1, close_s, close_s + 1, 86399])
    rng = np.random.default_rng(7)
    ts = np.concatenate([
        (days[:, None] + clock.astype("timedelta64[s]")).ravel(),
        days[0] + rng.integers(0, 62 * 365 * 86400, 50_000).astype("timedelta64[s]"),
    ])
    got = calendar.in_session_mask(ts)
    assert got.dtype == bool
    assert np.array_equal(got, weekday_session_mask(calendar, ts))
    at_midday = np.array([f"{day}T12:00:00" for day in ("2024-01-15", "2024-01-16", "1969-12-31",
                                                        "1970-01-02")], dtype="datetime64[s]")
    expect = [not calendar.holidays, True, not calendar.holidays, not calendar.holidays]
    assert calendar.in_session_mask(at_midday).tolist() == expect


def trading_days_by_day(start, count, holidays):
    """The first ``count`` weekdays at or after ``start`` that are not holidays, day by day."""
    out, day = [], start
    while len(out) < count:
        if day.weekday() < 5 and day not in holidays:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def test_trading_days_skip_weekend_and_holiday():
    cal = TradingCalendar(holidays=frozenset({dt.date(2024, 1, 8)}))
    days = cal.trading_days("2024-01-05", 3)  # Friday start; Mon 8th is out
    assert [str(d) for d in days] == ["2024-01-05", "2024-01-09", "2024-01-10"]
    holiday_sets = [
        frozenset(),
        frozenset({dt.date(2024, 1, 8)}),
        # one on a Saturday, then Christmas and New Year's Day, one a year later
        frozenset({dt.date(2024, 1, 13), dt.date(2024, 12, 25), dt.date(2025, 1, 1),
                   dt.date(2025, 12, 25)}),
    ]
    # a Friday, a Saturday, and two days that are holidays in some sets
    starts = [dt.date(2024, 1, 5), dt.date(2024, 1, 6), dt.date(2024, 1, 8),
              dt.date(2024, 12, 25)]
    for holidays in holiday_sets:
        cal = TradingCalendar(holidays=holidays)
        for start in starts:
            for count in (0, 1, 3, 400):
                days = cal.trading_days(np.datetime64(start), count)
                assert days.dtype == np.dtype("datetime64[D]")
                assert days.tolist() == trading_days_by_day(start, count, holidays)
            days = [start + dt.timedelta(days=k) for k in range(30)]
            midday = np.array([f"{day}T12:00:00" for day in days], dtype="datetime64[s]")
            assert cal.in_session_mask(midday).tolist() == [
                day.weekday() < 5 and day not in holidays for day in days]


def test_load_calendar_text():
    cfg = io.StringIO(
        "# session definition\nopen=10:00\nclose=15:30\n2024-12-25\n\n2024-01-01\n"
    )
    cal = load_calendar(cfg)
    assert cal.open_time == dt.time(10, 0)
    assert cal.close_time == dt.time(15, 30)
    assert cal.holidays == frozenset({dt.date(2024, 12, 25), dt.date(2024, 1, 1)})


def test_load_calendar_bad_line_reports_number():
    with pytest.raises(CalendarError, match="line 2"):
        load_calendar(io.StringIO("open=10:00\nnot-a-date\n"))


def test_byte_order_mark_is_ignored(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a byte-order mark
    calendar_text = "open=10:00\nclose=15:30\n2024-01-04\n"
    prices_text = "timestamp,symbol,price\n" + "\n".join(
        full_session_rows("AAA", "2024-01-03", [100.0 + k for k in range(14)])) + "\n"
    loaded = []
    for encoding in ("utf-8", "utf-8-sig"):
        cal_path = tmp_path / f"{encoding}.cal"
        cal_path.write_text(calendar_text, encoding=encoding)
        prices_path = tmp_path / f"{encoding}.csv"
        prices_path.write_text(prices_text, encoding=encoding)
        cal = load_calendar(cal_path)
        loaded.append((cal, load_prices(prices_path, cal)))
    (plain_cal, plain), (bom_cal, bom) = loaded
    assert (tmp_path / "utf-8-sig.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert bom_cal == plain_cal
    assert bom.asset_ids == plain.asset_ids
    assert np.array_equal(bom.timestamps, plain.timestamps)
    assert np.array_equal(bom.prices, plain.prices, equal_nan=True)
    assert bom.excluded_count == plain.excluded_count


def test_calendar_rejects_inverted_session():
    with pytest.raises(CalendarError):
        TradingCalendar(open_time=dt.time(16, 0), close_time=dt.time(9, 30))


@pytest.mark.parametrize("clock", [
    dt.time(9, 30, 40),
    dt.time(9, 30, 0, 1),
    dt.time(9, 30, tzinfo=dt.timezone(dt.timedelta(hours=1))),
])
def test_calendar_rejects_times_off_the_minute(clock):
    with pytest.raises(CalendarError, match="whole minute"):
        TradingCalendar(open_time=clock)
    with pytest.raises(CalendarError, match="whole minute"):
        TradingCalendar(close_time=clock.replace(hour=16))


def test_load_prices_basic_panel():
    panel = load_prices(csv_stream([
        "2024-01-03T09:30:00,BBB,50.0",
        "2024-01-03T09:30:00,AAA,100.0",
        "2024-01-03T10:00:00,AAA,101.0",
    ]), CAL)
    assert panel.asset_ids == ["AAA", "BBB"]  # alphabetical
    assert panel.timestamps.tolist() == [
        np.datetime64("2024-01-03T09:30:00").item(),
        np.datetime64("2024-01-03T10:00:00").item(),
    ]
    assert panel.prices[0].tolist() == [100.0, 101.0]
    assert panel.prices[1][0] == 50.0
    assert np.isnan(panel.prices[1][1])  # BBB has no 10:00 quote
    assert panel.excluded_count == 0


def test_load_prices_excludes_out_of_session_row():
    panel = load_prices(csv_stream([
        "2024-01-03T03:00:00,AAA,99.0",
        "2024-01-03T09:30:00,AAA,100.0",
    ]), CAL)
    assert panel.excluded_count == 1
    assert panel.timestamps.size == 1


def test_load_prices_rejects_nonpositive_price_with_line():
    with pytest.raises(PriceDataError, match="line 3"):
        load_prices(csv_stream([
            "2024-01-03T09:30:00,AAA,100.0",
            "2024-01-03T09:31:00,AAA,0.0",
        ]), CAL)
    with pytest.raises(PriceDataError, match="line 2"):
        load_prices(csv_stream(["2024-01-03T09:30:00,AAA,-5.0"]), CAL)


def test_load_prices_rejects_malformed_input():
    with pytest.raises(PriceDataError, match="header"):
        load_prices(io.StringIO("time,sym,px\n"), CAL)
    with pytest.raises(PriceDataError):
        load_prices(io.StringIO(""), CAL)
    with pytest.raises(PriceDataError, match="line 2"):
        load_prices(csv_stream(["2024-01-03T09:30:00,AAA"]), CAL)
    with pytest.raises(PriceDataError, match="timestamp"):
        load_prices(csv_stream(["yesterday,AAA,1.0"]), CAL)
    with pytest.raises(PriceDataError, match="price"):
        load_prices(csv_stream(["2024-01-03T09:30:00,AAA,cheap"]), CAL)
    with pytest.raises(PriceDataError, match="symbol"):
        load_prices(csv_stream(["2024-01-03T09:30:00,,1.0"]), CAL)


def test_load_prices_rejects_symbol_time_regression():
    with pytest.raises(PriceDataError, match="line 3"):
        load_prices(csv_stream([
            "2024-01-03T10:00:00,AAA,100.0",
            "2024-01-03T09:30:00,AAA,99.0",
        ]), CAL)


def test_load_prices_all_rows_outside_sessions():
    with pytest.raises(PriceDataError, match="outside"):
        load_prices(csv_stream(["2024-01-06T12:00:00,AAA,1.0"]), CAL)


def test_returns_simple_one_percent():
    panel = load_prices(csv_stream([
        "2024-01-03T09:30:00,AAA,100.0",
        "2024-01-03T10:00:00,AAA,101.0",
    ]), CAL)
    mat = compute_returns(panel, 30)
    # the 10:00 price carries forward, so all 13 endpoints resolve: one 1%
    # move, then flat
    assert mat.returns.shape == (1, 13)
    assert mat.returns[0, 0] == pytest.approx(0.01, abs=1e-15)
    assert np.all(mat.returns[0, 1:] == 0.0)
    assert mat.timestamps[0] == np.datetime64("2024-01-03T10:00:00")
    assert mat.session_dates[0] == np.datetime64("2024-01-03")
    assert mat.interval == 30


def test_returns_full_session_has_thirteen_columns():
    rows = full_session_rows("AAA", "2024-01-03", [100.0 + k for k in range(14)])
    mat = compute_returns(load_prices(csv_stream(rows), CAL), 30)
    assert mat.n_observations == 13  # 390 / 30
    assert mat.period == (dt.date(2024, 1, 3), dt.date(2024, 1, 3))
    rows = (
        full_session_rows("AAA", "2024-01-03", [100.0] * 14)
        + full_session_rows("BBB", "2024-01-03", [50.0] * 14)
    )
    assert compute_returns(load_prices(csv_stream(rows), CAL), 30).returns.shape == (2, 13)


def test_returns_constant_prices_are_zero():
    rows = full_session_rows("AAA", "2024-01-03", [42.0] * 14)
    mat = compute_returns(load_prices(csv_stream(rows), CAL), 30)
    assert np.all(mat.returns == 0.0)


def test_returns_previous_tick_resolution():
    panel = load_prices(csv_stream([
        "2024-01-03T09:30:00,AAA,100.0",
        "2024-01-03T09:58:00,AAA,110.0",  # last quote before the 10:00 endpoint
        "2024-01-03T10:25:00,AAA,121.0",  # carried into the 10:30 endpoint
    ]), CAL)
    mat = compute_returns(panel, 30)
    assert mat.returns[0, :2].tolist() == pytest.approx([0.1, 0.1], abs=1e-15)
    assert np.all(mat.returns[0, 2:] == 0.0)  # 121 carried to the close
    assert [str(t) for t in mat.timestamps[:2]] == [
        "2024-01-03T10:00:00", "2024-01-03T10:30:00"]


def test_returns_drop_columns_when_any_asset_unresolved():
    # BBB has no quote at or before 10:00, so both columns touching that
    # endpoint disappear for every asset
    panel = load_prices(csv_stream([
        "2024-01-03T09:30:00,AAA,100.0",
        "2024-01-03T10:00:00,AAA,101.0",
        "2024-01-03T10:30:00,AAA,102.0",
        "2024-01-03T11:00:00,AAA,103.0",
        "2024-01-03T10:05:00,BBB,50.0",
        "2024-01-03T10:30:00,BBB,51.0",
        "2024-01-03T11:00:00,BBB,52.0",
    ]), CAL)
    mat = compute_returns(panel, 30)
    # endpoints 09:30 and 10:00 are unresolvable for BBB, killing the first
    # two columns; 10:30 onward resolves for both, leaving 11 columns
    assert mat.returns.shape == (2, 11)
    assert str(mat.timestamps[0]) == "2024-01-03T11:00:00"
    assert mat.returns[0, 0] == pytest.approx((103 - 102) / 102, abs=1e-15)
    assert mat.returns[1, 0] == pytest.approx((52 - 51) / 51, abs=1e-15)
    assert np.all(mat.returns[:, 1:] == 0.0)  # both carried flat afterwards


def test_returns_never_span_sessions():
    rows = (
        full_session_rows("AAA", "2024-01-03", [100.0 + k for k in range(14)])
        + full_session_rows("AAA", "2024-01-04", [200.0 + k for k in range(14)])
    )
    mat = compute_returns(load_prices(csv_stream(rows), CAL), 30)
    assert mat.n_observations == 26
    days = np.unique(mat.session_dates)
    assert days.size == 2
    # the overnight 113 -> 200 jump must appear in no return
    assert np.max(np.abs(mat.returns)) < 0.02


def test_returns_interval_validation():
    panel = load_prices(csv_stream(["2024-01-03T09:30:00,AAA,1.0"]), CAL)
    with pytest.raises(PriceDataError):
        compute_returns(panel, 0)
    with pytest.raises(PriceDataError):
        compute_returns(panel, 391)


def test_returns_scale_invariance():
    rows_a = full_session_rows("AAA", "2024-01-03", [100.0 + 3 * k for k in range(14)])
    rows_b = full_session_rows("AAA", "2024-01-03",
                               [(100.0 + 3 * k) * 1024.0 for k in range(14)])
    m1 = compute_returns(load_prices(csv_stream(rows_a), CAL), 30)
    m2 = compute_returns(load_prices(csv_stream(rows_b), CAL), 30)
    # power-of-two scaling leaves arithmetic returns bit-identical
    assert np.array_equal(m1.returns, m2.returns)


def test_returns_no_complete_interval_errors():
    panel = load_prices(csv_stream(["2024-01-03T15:59:00,AAA,1.0"]), CAL)
    with pytest.raises(PriceDataError, match="no complete"):
        compute_returns(panel, 30)


def panel_fields(**changes):
    """PricePanel fields for AAA (two quotes), no-quote BBB, CCC (one quote), with changes."""
    fields = dict(
        asset_ids=["AAA", "BBB", "CCC"],
        offsets=[0, 2, 2, 3],
        # CCC's quote is earlier than AAA's last: order is per asset only
        quote_ts=np.array(["2024-01-03T09:30", "2024-01-03T10:00", "2024-01-03T09:45"],
                          dtype="datetime64[s]"),
        quote_px=np.array([100.0, 101.0, 50.0]),
        calendar=CAL,
    )
    fields.update(changes)
    return fields


def test_panel_constructor_accepts_quote_runs():
    panel = PricePanel(**panel_fields())
    assert panel.offsets.tolist() == [0, 2, 2, 3]
    assert panel.timestamps.tolist() == [
        dt.datetime(2024, 1, 3, 9, 30), dt.datetime(2024, 1, 3, 9, 45),
        dt.datetime(2024, 1, 3, 10, 0)]
    assert np.array_equal(panel.prices, [[100.0, np.nan, 101.0], [np.nan] * 3,
                                         [np.nan, 50.0, np.nan]], equal_nan=True)


def ts_of(*clock):
    return np.array([f"2024-01-03T{c}" for c in clock], dtype="datetime64[s]")


@pytest.mark.parametrize("changes", [
    {"offsets": [0, 2, 3]},  # one offset short of the assets
    {"offsets": [1, 2, 2, 3]},  # does not start at 0
    {"offsets": [0, 2, 2, 2]},  # does not cover every quote
    {"offsets": [0, 3, 2, 3]},  # a run of negative length
    {"offsets": [0.0, 2.0, 2.0, 3.0]},  # not integers
    {"quote_px": np.array([100.0, 101.0])},  # prices do not match timestamps
    {"asset_ids": ["AAA"], "offsets": [0, 0], "quote_ts": ts_of()[:0],
     "quote_px": np.array([])},  # no quotes
    {"quote_ts": ts_of("10:00", "09:30", "09:45")},  # AAA goes back in time
    {"quote_ts": ts_of("09:30", "09:30", "09:45")},  # AAA repeats a time
    {"quote_px": np.array([100.0, 0.0, 50.0])},
    {"quote_px": np.array([100.0, -1.0, 50.0])},
    {"quote_px": np.array([100.0, np.nan, 50.0])},
    {"quote_px": np.array([100.0, np.inf, 50.0])},
    {"quote_ts": ts_of("09:30", "10:00", "16:00:01")},  # after the close
    {"quote_ts": np.array(["2024-01-06T10:00", "2024-01-06T11:00", "2024-01-06T10:30"],
                          dtype="datetime64[s]")},  # a Saturday
])
def test_panel_constructor_rejects_broken_invariants(changes):
    with pytest.raises(PriceDataError):
        PricePanel(**panel_fields(**changes))


def async_tape(n_symbols, rows, seed, sessions=2):
    """Asynchronous tape text: one quote a second at ``rows`` random in-session seconds
    over ``sessions`` sessions from 2024-01-03, each from a random symbol of ``n_symbols``."""
    rng = np.random.default_rng(seed)
    seconds = np.sort(rng.choice(sessions * 23_401, rows, replace=False))
    day, sec = np.divmod(seconds, 23_401)
    opens = CAL.trading_days("2024-01-03", sessions) + np.timedelta64(9 * 3600 + 1800, "s")
    stamps = (opens[day] + sec * np.timedelta64(1, "s")).astype(str).tolist()
    symbols = rng.integers(n_symbols, size=rows).tolist()
    prices = np.exp(rng.normal(3.0, 0.1, rows)).tolist()
    return "timestamp,symbol,price\n" + "".join(
        f"{t},S{s:03d},{p!r}\n" for t, s, p in zip(stamps, symbols, prices))


def ingest_peak(text):
    """Peak traced bytes of load_prices + compute_returns on a tape, and its returns."""
    tracemalloc.start()
    try:
        matrix = compute_returns(load_prices(io.StringIO(text), CAL), 30)
        return tracemalloc.get_traced_memory()[1], matrix
    finally:
        tracemalloc.stop()


def test_ingest_memory_does_not_grow_with_symbols():
    few, few_matrix = ingest_peak(async_tape(20, 20_000, seed=1))
    many, many_matrix = ingest_peak(async_tape(200, 20_000, seed=1))
    assert (few_matrix.n_assets, many_matrix.n_assets) == (20, 200)
    # a dense assets x timestamps panel alone would be 3 MiB vs 31 MiB here
    assert many < 1.1 * few, (few, many)


def test_pipeline_never_builds_the_dense_view(monkeypatch):
    def dense(panel):
        raise AssertionError("dense panel view used")

    monkeypatch.setattr(PricePanel, "prices", property(dense))
    monkeypatch.setattr(PricePanel, "timestamps", property(dense))
    matrix = compute_returns(load_prices(io.StringIO(async_tape(20, 2_000, seed=2)), CAL), 30)
    assert matrix.n_assets == 20


def load_peak_per_row(source, rows):
    """Peak traced bytes per row of load_prices on a ``rows``-row tape."""
    tracemalloc.start()
    try:
        panel = load_prices(source, CAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.quote_ts.size == rows
    return peak / rows


def test_ingest_peak_memory_per_row():
    rows = 120_000
    stream = io.StringIO(async_tape(30, rows, seed=3, sessions=6))
    # the parsed columns (timestamp, symbol code, price, line number) are 32
    # bytes a row; per-row Python lists of the text would be about 160
    assert load_peak_per_row(stream, rows) < 128


def test_ingest_peak_memory_per_row_from_a_path(tmp_path):
    rows = 120_000
    path = tmp_path / "prices.csv"
    path.write_text(async_tape(30, rows, seed=3, sessions=6))
    assert load_peak_per_row(path, rows) < 128


def no_fork():
    raise AssertionError("a process was started")


def test_ingest_peak_memory_per_row_from_a_path_in_one_process(tmp_path, monkeypatch):
    # the file above may be large enough for byte ranges, whose workers tracemalloc
    # does not see; read whole, it is held to the same bound
    rows = 120_000
    path = tmp_path / "prices.csv"
    path.write_text(async_tape(30, rows, seed=3, sessions=6))
    monkeypatch.setattr(ingest, "_PARALLEL_MIN_BYTES", path.stat().st_size + 1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert load_peak_per_row(path, rows) < 128


def test_files_from_the_size_gate_on_are_cut_into_ranges(monkeypatch):
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 2)
    assert ingest._range_count(ingest._PARALLEL_MIN_BYTES - 1) == 0
    assert ingest._range_count(ingest._PARALLEL_MIN_BYTES) == 2


# copies a file into a FIFO
FIFO_WRITER = "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))"


def test_fifo_path_is_read_as_a_stream(tmp_path, monkeypatch):
    text = async_tape(5, 3_000, seed=4)
    source, fifo = tmp_path / "prices.csv", tmp_path / "prices.fifo"
    source.write_text(text)
    os.mkfifo(fifo)

    def hung(signum, frame):
        pytest.fail("the FIFO was not read to its end within 30 s")

    # a writer thread would keep load_prices from forking anyway; a process does not
    writer = subprocess.Popen([sys.executable, "-c", FIFO_WRITER, str(source), str(fifo)])
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with monkeypatch.context() as mp:
            mp.setattr(ingest, "_PARALLEL_MIN_BYTES", 0)
            mp.setattr(ingest, "_usable_cpus", lambda: 2)
            mp.setattr(os, "fork", no_fork)
            panel = load_prices(fifo, CAL)
        assert writer.wait(timeout=30) == 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        writer.kill()
        writer.wait()
    want = load_prices(io.StringIO(text), CAL)
    assert panel.asset_ids == want.asset_ids
    for name in ("offsets", "quote_ts", "quote_px"):
        assert getattr(panel, name).tobytes() == getattr(want, name).tobytes()
    # no_stray_processes (conftest.py) then finds no child process, running or unreaped


def test_refused_first_range_ends_the_workers(tmp_path, monkeypatch):
    def slow_in_workers(path, bounds):
        if os.getpid() != caller:
            time.sleep(60)  # past the deadline, unless the worker is ended
        return parse_range(path, bounds)

    def hung(signum, frame):
        pytest.fail("load_prices still waits for a worker after 30 s")

    header, first, second, *rest = async_tape(5, 3_000, seed=5).splitlines(keepends=True)
    stamp, symbol, price = second.split(",")
    text = "".join([header, first, f'{stamp},"{symbol}",{price}', *rest])  # line 3 is quoted
    path = tmp_path / "prices.csv"
    path.write_text(text)
    caller, parse_range = os.getpid(), ingest._parse_range
    monkeypatch.setattr(ingest, "_PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ingest, "_parse_range", slow_in_workers)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        panel = load_prices(path, CAL)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    want = load_prices(io.StringIO(text), CAL)
    assert panel.asset_ids == want.asset_ids
    for name in ("offsets", "quote_ts", "quote_px"):
        assert getattr(panel, name).tobytes() == getattr(want, name).tobytes()
    # no_stray_processes (conftest.py) then finds no child process, running or unreaped


@pytest.mark.parametrize("text", ["timestamp,symbol,price\n", "timestamp,symbol,price\n\n\r\n\n",
                                  "timestamp,symbol,price"])
def test_header_without_rows_fails_from_a_stream_and_a_path(tmp_path, text):
    path = tmp_path / "prices.csv"
    path.write_text(text, newline="")
    for source in (io.StringIO(text, newline=""), path):
        with pytest.raises(PriceDataError, match=r"^input contains no data rows$"):
            load_prices(source, CAL)


def test_tokeniser_errors_name_their_line():
    too_long = "x" * (csv.field_size_limit() + 1)
    with pytest.raises(PriceDataError, match=r"^line 1: field larger than field limit"):
        load_prices(io.StringIO(f"{too_long},symbol,price\n2024-01-03T09:30:00,AAA,1.0\n"), CAL)
    with pytest.raises(PriceDataError, match=r"^line 3: field larger than field limit"):
        load_prices(csv_stream(["2024-01-03T09:30:00,AAA,1.0", f"2024-01-03T09:31:00,{too_long},1.0"]),
                    CAL)
    # a lone carriage return inside a line of a stream that does not split lines there
    with pytest.raises(PriceDataError, match=r"^line 2: new-line character seen in unquoted field"):
        load_prices(csv_stream(["2024-01-03T09:30:00,AAA,1.0\r2024-01-03T09:31:00,AAA,2.0"]), CAL)
    # a bare "\n" inside a line of a stream that ends lines only at "\r\n"
    stream = io.TextIOWrapper(io.BytesIO(b"timestamp,symbol,price\r\n2024-01-03T09:30:00,AAA,1.0\n"
                                         b"2024-01-03T09:31:00,AAA,2.0\r\n"),
                              encoding="utf-8", newline="\r\n")
    with pytest.raises(PriceDataError, match=r"^line 2: new-line character seen in unquoted field"):
        load_prices(stream, CAL)
    # the same stream's lines counted at "\n" would put a bad price on line 3; the line
    # count is checked before any value is read
    stream = io.TextIOWrapper(io.BytesIO(b"timestamp,symbol,price\r\n2024-01-03T09:30:00,AAA,1.0\n"
                                         b"2024-01-03T09:31:00,AAA,cheap\r\n"),
                              encoding="utf-8", newline="\r\n")
    with pytest.raises(PriceDataError, match=r"^line 2: new-line character seen in unquoted field"):
        load_prices(stream, CAL)
