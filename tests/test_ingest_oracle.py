"""Column-wise ingest against the row-at-a-time reference, and error precedence."""

import csv
import datetime as dt
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copuladyn import PriceDataError, PricePanel, TradingCalendar, compute_returns, load_prices
from copuladyn import ingest
from oracles import parse_price_rows, session_returns

HOLIDAY = dt.date(2024, 1, 15)  # a Monday
# Thursday, Friday, Saturday, the holiday, then Tuesday and Wednesday
DAYS = ["2024-01-11", "2024-01-12", "2024-01-13", "2024-01-15", "2024-01-16", "2024-01-17"]
CALENDARS = [
    TradingCalendar(holidays=frozenset({HOLIDAY})),
    TradingCalendar(open_time=dt.time(10, 0), close_time=dt.time(15, 30),
                    holidays=frozenset({HOLIDAY})),
]
INTERVALS = (7, 30, 45, 60, 120, 240, 330)
# the default read block, and one so small that blocks split every few lines
BLOCK_CHARS = (ingest._READ_BLOCK_CHARS, 64)


def outcome(fn, *args):
    """The function's result, or the message of the PriceDataError it raised."""
    try:
        return fn(*args)
    except PriceDataError as exc:
        return str(exc)


def use_ranges(mp, cpus):
    """Let load_prices parse a file of any size in byte ranges on ``cpus`` CPUs.

    Returns a list that gets the range count of each file load, then "whole file"
    for a load that dropped its ranges and read the file as one stream.
    """
    seen = []

    def range_count(size):
        seen.append(count(size))
        return seen[-1]

    def whole_file(*args, **kwargs):
        seen.append("whole file")
        return parse(*args, **kwargs)

    count, parse = ingest._range_count, ingest._parse_prices
    mp.setattr(ingest, "_PARALLEL_MIN_BYTES", 0)
    mp.setattr(ingest, "_usable_cpus", lambda: cpus)
    mp.setattr(ingest, "_range_count", range_count)
    mp.setattr(ingest, "_parse_prices", whole_file)
    return seen


# usable CPUs, and so byte ranges, of the file loads that library_panel runs in the pool
POOL_CPUS = (2, 3)


# newline="" splits lines as load_prices opens a file: at "\n", "\r\n" and a lone "\r".
# Each case is also read from a file, which load_prices reads with its own block reader,
# and then in byte ranges: the first in this process, the others in forked workers.
def library_loads(text, calendar, block_chars=ingest._READ_BLOCK_CHARS, pool_cpus=POOL_CPUS,
                  interval=None):
    """The outcomes of load_prices from a stream, from a file, and from the file in byte
    ranges on each of ``pool_cpus`` CPUs."""
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(ingest, "_READ_BLOCK_CHARS", block_chars)
        loads = [outcome(load_prices, io.StringIO(text, newline=""), calendar, interval)]
        path = Path(tmp) / "prices.csv"
        path.write_text(text, encoding="utf-8", newline="")
        loads.append(outcome(load_prices, path, calendar, interval))
        for cpus in pool_cpus:
            with pytest.MonkeyPatch.context() as pool:
                use_ranges(pool, cpus)
                loads.append(outcome(load_prices, path, calendar, interval))
    return loads


def library_panel(text, calendar, block_chars=ingest._READ_BLOCK_CHARS, pool_cpus=POOL_CPUS):
    got, *from_file = library_loads(text, calendar, block_chars, pool_cpus)
    for each in from_file:
        if isinstance(got, str):
            assert each == got
        else:
            assert_same_panel(each, got)
    return got


def oracle_panel(text, calendar):
    return outcome(parse_price_rows, csv.reader(io.StringIO(text, newline="")), calendar)


def assert_same_panel(got, want):
    assert got.asset_ids == want.asset_ids
    assert got.excluded_count == want.excluded_count
    assert got.timestamps.dtype == want.timestamps.dtype
    assert np.array_equal(got.timestamps, want.timestamps)
    assert got.prices.dtype == want.prices.dtype
    assert got.prices.shape == want.prices.shape
    assert got.prices.tobytes() == want.prices.tobytes()  # NaN positions included


def assert_same_returns(got, want):
    assert got.asset_ids == want.asset_ids
    assert got.interval == want.interval
    assert got.returns.shape == want.returns.shape
    assert got.returns.tobytes() == want.returns.tobytes()
    assert got.timestamps.dtype == want.timestamps.dtype
    assert np.array_equal(got.timestamps, want.timestamps)
    assert got.session_dates.dtype == want.session_dates.dtype
    assert np.array_equal(got.session_dates, want.session_dates)


def stamp(day, seconds):
    return f"{day}T{seconds // 3600:02d}:{seconds // 60 % 60:02d}:{seconds % 60:02d}"


def tick_tape(seed, calendar, blanks=True):
    """Asynchronous tick tape as CSV text.

    Each symbol quotes at its own random seconds; some sessions a symbol misses
    its opening print or does not quote at all. Pre-open, post-close, weekend
    and holiday rows are mixed in at random places, out of time order, and
    padded fields, and unless ``blanks`` is false blank lines, are scattered
    through the file.
    """
    rng = np.random.default_rng(seed)
    open_s = calendar.open_time.hour * 3600 + calendar.open_time.minute * 60
    session_s = calendar.session_minutes * 60
    symbols = [f"S{k}" for k in range(int(rng.integers(2, 6)))]
    quotes = []  # (timestamp text, symbol, price text)
    off_session = []
    for day in DAYS:
        trading = np.is_busday(day, holidays=sorted(calendar.holidays))
        for sym in symbols:
            if trading and rng.random() < 0.15:
                continue  # no quote in this session
            secs = rng.choice(session_s + 1, int(rng.integers(1, 30)), replace=False)
            if rng.random() < 0.5:
                secs = np.append(secs[secs != 0], 0)  # the opening print
            elif rng.random() < 0.5:
                secs = secs[secs != 0]  # a missed opening print
            rows = quotes if trading else off_session
            for s in np.sort(secs).tolist():
                rows.append((stamp(day, open_s + s), sym, repr(float(np.exp(rng.normal(3.0, 1.0))))))
        for s in rng.integers(0, 86400, 3).tolist():
            if not open_s <= s <= open_s + session_s:
                off_session.append((stamp(day, s), str(rng.choice(symbols)), "1.5"))
    # time order across symbols with random tie order; each symbol's quotes stay increasing
    rows = [quotes[k] for k in np.lexsort((rng.random(len(quotes)), [q[0] for q in quotes]))]
    for row in off_session:
        rows.insert(int(rng.integers(len(rows) + 1)), row)
    lines = ["timestamp,symbol,price"]
    for row in rows:
        if rng.random() < 0.05 and blanks:
            lines.append("")
        pad = " " if rng.random() < 0.1 else ""
        lines.append(",".join(pad + field + pad for field in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(8))
def test_tick_tape_matches_row_oracle(seed):
    calendar = CALENDARS[seed % 2]
    for blanks in (True, False):
        text = tick_tape(seed, calendar, blanks)
        want = oracle_panel(text, calendar)
        for block_chars in BLOCK_CHARS:
            assert_same_panel(library_panel(text, calendar, block_chars), want)
    panel = library_panel(text, calendar)
    assert panel.excluded_count > 0
    for interval in INTERVALS:
        got = outcome(compute_returns, panel, interval)
        want = outcome(session_returns, panel, interval)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_returns(got, want)


# the intervals that load_prices cuts a tape to, each a multiple of the first
THINNED_AT = (30, 60, 120, 240)


@pytest.mark.parametrize("seed", range(8))
def test_tick_tape_cut_to_an_interval_keeps_the_returns(seed):
    calendar = CALENDARS[seed % 2]
    for blanks in (True, False):
        text = tick_tape(seed, calendar, blanks)
        full = oracle_panel(text, calendar)
        quotes = np.count_nonzero(~np.isnan(full.prices))
        for block_chars in BLOCK_CHARS:
            for interval in THINNED_AT:
                # the panel cut at the shortest interval serves its multiples too
                multiples = THINNED_AT if interval == THINNED_AT[0] else (interval,)
                for panel in library_loads(text, calendar, block_chars, interval=interval):
                    # 64-character blocks hold a line or two, so they may keep every quote
                    assert panel.quote_ts.size < quotes or block_chars == 64
                    for dt in multiples:
                        got, want = outcome(compute_returns, panel, dt), outcome(
                            session_returns, full, dt)
                        if isinstance(want, str):
                            assert got == want
                        else:
                            assert_same_returns(got, want)


def test_returns_asset_without_quotes_matches_oracle():
    panel = PricePanel(
        asset_ids=["AAA", "BBB"],
        offsets=[0, 2, 2],
        quote_ts=np.array(["2024-01-03T09:30", "2024-01-03T12:00"], dtype="datetime64[s]"),
        quote_px=np.array([100.0, 101.0]),
        calendar=TradingCalendar(),
    )
    assert outcome(compute_returns, panel, 30) == outcome(session_returns, panel, 30)


SYMBOLS = ("AAA", "BBB", "CCC")
# numpy reads "" and "NaT" as the NaT value; neither is a timestamp
BAD_TIMESTAMPS = ("yesterday", "2024-13-01T10:00:00", "2024-01-03T25:00:00", "2024-1-3", "10:00",
                  "", "NaT")
BAD_PRICES = ("cheap", "", "1.2.3", "0", "-0.0", "-3.5", "nan", "inf", "-inf")


@st.composite
def faulty_csv(draw):
    """A small valid price CSV with one or two injected faults or quoted rows, as text.

    A "quoted" row wraps one field in quotes, and a "newline" row quotes its
    symbol with a newline inside; either sends its block to the row loop.
    """
    n = draw(st.integers(1, 8))
    minutes = sorted(draw(st.lists(st.integers(-30, 420), min_size=n, max_size=n)))
    rows = [
        [stamp("2024-01-03", 9 * 3600 + 30 * 60 + 60 * m), draw(st.sampled_from(SYMBOLS)),
         draw(st.sampled_from(("100.0", "7.25", "1e3")))]
        for m in minutes
    ]
    for k in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)):
        kind = draw(st.sampled_from(
            ("short", "long", "symbol", "timestamp", "price", "repeat", "blank", "quoted",
             "newline")))
        if kind == "short":
            rows[k] = rows[k][:2]
        elif kind == "long":
            rows[k] = rows[k] + ["x"]
        elif kind == "symbol":
            rows[k][1] = " "
        elif kind == "timestamp":
            rows[k][0] = draw(st.sampled_from(BAD_TIMESTAMPS))
        elif kind == "price":
            rows[k][2] = draw(st.sampled_from(BAD_PRICES))
        elif kind == "repeat":  # an earlier row's symbol and time again
            rows[k][:2] = rows[draw(st.integers(0, k))][:2]
        elif kind == "quoted":
            field = draw(st.integers(0, 2))
            rows[k][field] = f'"{rows[k][field]}"'
        elif kind == "newline":
            rows[k][1] = f'"{rows[k][1][0]}\n{rows[k][1][1:]}"'
        else:
            rows[k] = []
    return "timestamp,symbol,price\n" + "".join(",".join(r) + "\n" for r in rows)


# a pooled load forks its workers from this large process, which takes milliseconds: each
# example runs the pool once, at a drawn CPU count and block size
@given(faulty_csv(), st.sampled_from(POOL_CPUS), st.sampled_from(BLOCK_CHARS))
@settings(max_examples=300, deadline=None)
def test_faulty_csv_matches_row_oracle(text, pool_cpus, pool_block_chars):
    want = oracle_panel(text, CALENDARS[0])
    for block_chars in BLOCK_CHARS:
        cpus = (pool_cpus,) if block_chars == pool_block_chars else ()
        got = library_panel(text, CALENDARS[0], block_chars, pool_cpus=cpus)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_panel(got, want)


def error_of(rows):
    with pytest.raises(PriceDataError) as excinfo:
        load_prices(io.StringIO("timestamp,symbol,price\n" + "\n".join(rows) + "\n"),
                    TradingCalendar())
    return str(excinfo.value)


GOOD = "2024-01-03T09:30:00,AAA,100.0"


def test_first_offending_line_wins_across_kinds():
    assert error_of([GOOD, "2024-01-03T09:31:00,AAA,cheap", GOOD, "yesterday,AAA,1.0"]) == (
        "line 3: unparseable price 'cheap'")
    assert error_of([GOOD, "yesterday,AAA,1.0", GOOD, "2024-01-03T09:31:00,AAA,cheap"]) == (
        "line 3: unparseable timestamp 'yesterday'")
    assert error_of(["yesterday,AAA,1.0", "2024-01-03T09:31:00,AAA"]) == (
        "line 2: unparseable timestamp 'yesterday'")
    assert error_of(["yesterday,AAA,1.0", "2024-01-03T09:31:00,,1.0"]) == (
        "line 2: unparseable timestamp 'yesterday'")
    assert error_of(["yesterday,AAA,1.0", "2024-01-03T09:31:00,AAA,0"]) == (
        "line 2: unparseable timestamp 'yesterday'")
    # and before a tokeniser error on a later line
    too_long = "S" * (csv.field_size_limit() + 1)
    assert error_of(["yesterday,AAA,1.0", f"2024-01-03T09:31:00,{too_long},1.0"]) == (
        "line 2: unparseable timestamp 'yesterday'")
    # a row fault anywhere is reported before any per-symbol time regression
    assert error_of([GOOD, GOOD, GOOD, "2024-01-03T09:31:00,AAA,-1"]) == (
        "line 5: price must be strictly positive, got -1")


@pytest.mark.parametrize("row, message", [
    ("yesterday,,cheap,x", "line 2: expected 3 fields, got 4"),
    ("yesterday,,cheap", "line 2: empty symbol"),
    ("yesterday,AAA,cheap", "line 2: unparseable timestamp 'yesterday'"),
    ("yesterday,AAA,-1", "line 2: unparseable timestamp 'yesterday'"),
    ("2024-01-03T09:30:00,AAA,cheap", "line 2: unparseable price 'cheap'"),
    ("2024-01-03T09:30:00,AAA,-1", "line 2: price must be strictly positive, got -1"),
])
def test_fault_order_within_a_row(row, message):
    assert error_of([row]) == message


def test_regression_message_and_first_line():
    assert error_of(["2024-01-03T10:00:00,AAA,1.0", "2024-01-03T09:30:00,AAA,1.0"]) == (
        "line 3: timestamps for symbol 'AAA' must be strictly increasing")
    # a repeated time is a regression too
    assert error_of([GOOD, "2024-01-03T09:30:00,BBB,1.0", GOOD]) == (
        "line 4: timestamps for symbol 'AAA' must be strictly increasing")
    # BBB regresses first in the file although AAA comes first in it and sorts first
    assert error_of([
        "2024-01-03T10:00:00,AAA,1.0",
        "2024-01-03T10:00:00,BBB,1.0",
        "2024-01-03T09:45:00,BBB,1.0",
        "2024-01-03T09:45:00,AAA,1.0",
    ]) == "line 4: timestamps for symbol 'BBB' must be strictly increasing"


# the quoted symbol on the first data record spans physical lines 2 and 3
SPLIT_RECORD = 'timestamp,symbol,price\n2024-01-03T09:30:00,"B\nB",100.0\n'


@pytest.mark.parametrize("rows, message", [
    ("2024-01-03T09:31:00,AAA,cheap\n", "line 4: unparseable price 'cheap'"),
    ("yesterday,AAA,1.0\n", "line 4: unparseable timestamp 'yesterday'"),
    ("2024-01-03T10:00:00,AAA,1.0\n2024-01-03T09:30:00,AAA,1.0\n",
     "line 5: timestamps for symbol 'AAA' must be strictly increasing"),
])
def test_line_numbers_count_physical_lines(rows, message):
    text = SPLIT_RECORD + rows
    assert library_panel(text, CALENDARS[0]) == message
    assert oracle_panel(text, CALENDARS[0]) == message


def test_line_endings_match_row_oracle():
    text = tick_tape(3, CALENDARS[1], blanks=False)
    for variant in (text.replace("\n", "\r\n"), text.replace("\n", "\r"), text[:-1]):
        want = oracle_panel(variant, CALENDARS[1])
        assert not isinstance(want, str), want
        for block_chars in BLOCK_CHARS:
            assert_same_panel(library_panel(variant, CALENDARS[1], block_chars), want)


def row_loop(*args):
    raise AssertionError("row loop used")


def test_plain_input_never_reaches_the_row_loop(monkeypatch):
    text = tick_tape(5, CALENDARS[1], blanks=False)
    want = oracle_panel(text, CALENDARS[1])
    monkeypatch.setattr(ingest, "_parse_price_rows", row_loop)
    for variant in (text, text.replace("\n", "\r\n"), text[:-1]):
        for block_chars in BLOCK_CHARS:
            assert_same_panel(library_panel(variant, CALENDARS[1], block_chars), want)


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_empty_line_keeps_a_block_plain(monkeypatch, block_chars, newline):
    lines = tick_tape(5, CALENDARS[1], blanks=False).splitlines(keepends=True)
    text = "".join(lines[:2] + ["\n"] + lines[2:]).replace("\n", newline)
    want = oracle_panel(text, CALENDARS[1])
    with monkeypatch.context() as mp:
        mp.setattr(ingest, "_parse_price_rows", row_loop)
        assert_same_panel(library_panel(text, CALENDARS[1], block_chars), want)
    # a line of spaces is a record of one field, not an empty line
    spaces = "".join(lines[:2] + ["   \n"] + lines[2:]).replace("\n", newline)
    assert library_panel(spaces, CALENDARS[1], block_chars) == (
        "line 3: expected 3 fields, got 1")
    assert oracle_panel(spaces, CALENDARS[1]) == "line 3: expected 3 fields, got 1"


def test_fields_never_shift_between_lines():
    # four fields then two: six in all, which would split into two valid rows
    text = ("timestamp,symbol,price\n2024-01-03T09:30:00,AAA,1.0,2024-01-03T09:31:00\n"
            "BBB,2.0\n")
    for block_chars in BLOCK_CHARS:
        assert library_panel(text, CALENDARS[0], block_chars) == (
            "line 2: expected 3 fields, got 4")
    assert oracle_panel(text, CALENDARS[0]) == "line 2: expected 3 fields, got 4"


def test_quoted_fields_match_row_oracle():
    text = ('timestamp,symbol,price\n2024-01-03T09:30:00,"AAA",1.0\n'
            '2024-01-03T09:31:00,AAA,1.0\n2024-01-03T09:32:00,AAA,1.0\n'
            '"2024-01-03T09:33:00",AAA,"2.0"\n2024-01-03T09:34:00,"A,""B""",3.0\n')
    want = oracle_panel(text, CALENDARS[0])
    assert want.asset_ids == ["A,\"B\"", "AAA"]
    for block_chars in BLOCK_CHARS:
        assert_same_panel(library_panel(text, CALENDARS[0], block_chars), want)


HEADER_LINE = "timestamp,symbol,price\n"


def good_lines(n):
    """``n`` valid 30-character data lines: AAA, BBB and CCC in turn, one quote a second each."""
    return [f"{stamp('2024-01-03', 9 * 3600 + 1800 + k // 3)},{SYMBOLS[k % 3]},100.0\n"
            for k in range(n)]


def block_starts(lines, block_chars):
    """Physical line number of the first line of each block that load_prices reads."""
    stream = io.StringIO(HEADER_LINE + "".join(lines), newline="")
    stream.readline()
    starts = [2]
    while block := stream.readlines(block_chars):
        starts.append(starts[-1] + len(block))
    return starts[:-1]


def compare_to_oracle(lines, block_chars, pool_cpus=POOL_CPUS):
    text = HEADER_LINE + "".join(lines)
    got = library_panel(text, CALENDARS[0], block_chars, pool_cpus)
    want = oracle_panel(text, CALENDARS[0])
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_panel(got, want)
    return got


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_fault_on_first_line_of_second_block(block_chars, newline):
    lines = [line.replace("\n", newline) for line in good_lines(2 * block_chars // 30 + 9)]
    second = block_starts(lines, block_chars)[1]
    lines[second - 2] = lines[second - 2].replace("100.0", "cheap")
    assert compare_to_oracle(lines, block_chars) == f"line {second}: unparseable price 'cheap'"


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
def test_empty_and_nat_timestamps_fail_with_their_line(block_chars):
    lines = [",AAA,1.0\n", "NaT,AAA,2.0\n", GOOD + "\n", "2024-01-03T09:31:00,AAA,3.0\n"]
    assert compare_to_oracle(lines, block_chars) == "line 2: unparseable timestamp ''"
    # the first bad row opens the second block, after a block of valid rows
    lines = good_lines(2 * block_chars // 30 + 9)
    second = block_starts(lines, block_chars)[1]
    lines[second - 2] = " NaT ,AAA,100.0\n"
    lines[second] = ",AAA,100.0\n"
    assert compare_to_oracle(lines, block_chars) == f"line {second}: unparseable timestamp 'NaT'"


def parsers_used(monkeypatch):
    """A list that records ("plain" or "rows", first physical line) for each block
    that the block parser accepts or the row loop reads, outside a byte range."""
    used, in_range = [], []

    def plain_block(lines, line_offset):
        block = plain(lines, line_offset)
        if block is not None and not in_range:
            used.append(("plain", line_offset + 1))
        return block

    def parse_range(path, bounds):
        in_range.append(bounds)
        try:
            return parse_range_of(path, bounds)
        finally:
            in_range.pop()

    def row_loop(reader, line_offset, stop_line):
        used.append(("rows", line_offset + 1))
        return rows(reader, line_offset, stop_line)

    plain, rows, parse_range_of = (ingest._parse_plain_block, ingest._parse_price_rows,
                                   ingest._parse_range)
    monkeypatch.setattr(ingest, "_parse_plain_block", plain_block)
    monkeypatch.setattr(ingest, "_parse_price_rows", row_loop)
    monkeypatch.setattr(ingest, "_parse_range", parse_range)
    return used


# library_panel loads each case from a stream, from a file, and from the file again after
# each pooled load drops its byte ranges, which it does when a block is not plain
LOADS = 2 + len(POOL_CPUS)


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
@pytest.mark.parametrize("fault", [False, True])
def test_quoted_record_across_a_block_boundary(monkeypatch, block_chars, fault):
    lines = good_lines(3 * block_chars // 30 + 9)
    # the record's first physical line is the last line of the second block,
    # and its second physical line starts the third block
    second, third = block_starts(lines, block_chars)[1:3]
    start = third - 1
    ts_text, symbol, _ = lines[start - 2].split(",")
    lines[start - 2:start - 1] = [f'{ts_text},"{symbol}{symbol}\n', f'{symbol}",100.0\n']
    assert start + 1 in block_starts(lines, block_chars)
    used = parsers_used(monkeypatch)
    if fault:
        lines[start + 2] = lines[start + 2].replace("100.0", "-1.00")
        assert compare_to_oracle(lines, block_chars) == (
            f"line {start + 4}: price must be strictly positive, got -1.00")
    else:
        assert f"{symbol}{symbol}\n{symbol}" in compare_to_oracle(lines, block_chars).asset_ids
    # the row loop reads the record whole; the block parser takes over after it
    assert used[:3] == [("plain", 2), ("rows", second), ("plain", start + 2)]


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
@pytest.mark.parametrize("fault", [None, "price", "regression"])
def test_quoted_line_3_hands_back_to_the_block_parser(tmp_path, monkeypatch, block_chars,
                                                       fault):
    lines = good_lines(4 * block_chars // 30 + 9)
    starts = block_starts(lines, block_chars)
    ts_text, rest = lines[1].split(",", 1)
    lines[1] = f'"{ts_text}",{rest}'  # physical line 3
    if fault == "price":  # in the third block, which is plain up to that line
        lines[starts[2]] = lines[starts[2]].replace("100.0", "0.000")
    elif fault == "regression":
        lines[starts[3]] = lines[0]  # AAA at the opening second again
    used = parsers_used(monkeypatch)
    got = compare_to_oracle(lines, block_chars)
    if fault == "price":
        assert got == f"line {starts[2] + 2}: price must be strictly positive, got 0.000"
        # every load of library_panel takes the same blocks
        assert used == LOADS * [("rows", 2), ("plain", starts[1]), ("plain", starts[2])]
        return
    if fault == "regression":
        assert got == (f"line {starts[3] + 2}: timestamps for symbol 'AAA' must be "
                       "strictly increasing")
    # only the first block goes to the row loop, which stops at its end, in every
    # load of library_panel
    assert used == LOADS * [("rows", 2), *(("plain", n) for n in starts[1:])]
    # from a file as well, where the row loop iterates the stream that blocks are read from
    path = tmp_path / "prices.csv"
    path.write_text(HEADER_LINE + "".join(lines))
    monkeypatch.setattr(ingest, "_READ_BLOCK_CHARS", block_chars)
    from_file = outcome(load_prices, path, CALENDARS[0])
    if fault:
        assert from_file == got
    else:
        assert_same_panel(from_file, got)


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
@pytest.mark.parametrize("blank", [False, True])
def test_regression_line_in_a_later_block(monkeypatch, block_chars, blank):
    lines = good_lines(4 * block_chars // 30 + 9)
    starts = block_starts(lines, block_chars)
    regress = starts[3] + 1
    lines[regress - 2] = lines[0]  # AAA at the opening second again
    if blank:  # an empty line in the second block shifts the line numbers after it
        lines.insert(starts[1] - 2, "\n")
        regress += 1
    monkeypatch.setattr(ingest, "_parse_price_rows", row_loop)
    assert compare_to_oracle(lines, block_chars) == (
        f"line {regress}: timestamps for symbol 'AAA' must be strictly increasing")


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
def test_regression_line_after_the_row_loop_takes_over(monkeypatch, block_chars):
    lines = good_lines(4 * block_chars // 30 + 9)
    starts = block_starts(lines, block_chars)
    regress = starts[3] + 1
    lines[regress - 2] = lines[0]  # AAA at the opening second again
    # a quoted field makes the second block not plain, so the row loop reads from there on
    ts_text, symbol, price = lines[starts[1] - 2].split(",")
    lines[starts[1] - 2] = f'{ts_text},"{symbol}",{price}'
    offsets = []

    def counted_row_loop(reader, line_offset, stop_line):
        offsets.append(line_offset)
        return parse_rows(reader, line_offset, stop_line)

    parse_rows = ingest._parse_price_rows
    monkeypatch.setattr(ingest, "_parse_price_rows", counted_row_loop)
    assert compare_to_oracle(lines, block_chars) == (
        f"line {regress}: timestamps for symbol 'AAA' must be strictly increasing")
    # the header and the first block precede it, in every load of library_panel
    assert offsets == LOADS * [starts[1] - 1]


def test_off_session_rows_do_not_regress():
    panel = load_prices(io.StringIO(
        "timestamp,symbol,price\n"
        "2024-01-03T10:00:00,AAA,1.0\n"
        "2024-01-03T08:00:00,AAA,2.0\n"
        "2024-01-03T10:30:00,AAA,3.0\n"
    ), TradingCalendar())
    assert panel.excluded_count == 1
    assert panel.prices.tolist() == [[1.0, 3.0]]


BODY = "".join(good_lines(12))  # 30-character lines
READER_CASES = {
    "lf": BODY,
    # 31-character lines: a 30-character read ends between the first "\r" and its "\n"
    "crlf": BODY.replace("\n", "\r\n"),
    # a lone "\r" ends the first line, the last character of a 30-character read
    "lone-cr": BODY[:29] + "\r" + BODY[30:],
    "no-final-newline": BODY[:-1],
    "long-line": BODY[:60] + f"{stamp('2024-01-03', 34300)},{'X' * 100},1.0\n" + BODY[60:],
}


def header_then(path, block_chars, read_blocks):
    """The blocks that ``read_blocks`` takes from ``path`` opened as load_prices opens it,
    after the header line, at ``block_chars``."""
    with pytest.MonkeyPatch.context() as mp, open(path, encoding="utf-8-sig", newline="") as fh:
        mp.setattr(ingest, "_READ_BLOCK_CHARS", block_chars)
        fh.readline()
        return read_blocks(fh)


@pytest.mark.parametrize("block_chars", [29, 30, 31, 64, ingest._READ_BLOCK_CHARS])
@pytest.mark.parametrize("case", READER_CASES)
def test_file_blocks_are_the_lines_of_readlines(tmp_path, case, block_chars):
    body = READER_CASES[case]
    if case == "crlf":
        assert body[29:31] == "\r\n"
    elif case == "lone-cr":
        assert body[29:31] == "\r2"
    path = tmp_path / "prices.csv"
    path.write_text(HEADER_LINE + body, encoding="utf-8", newline="")
    got = header_then(path, block_chars, lambda fh: list(ingest._blocks(fh, True)))
    want = header_then(path, block_chars,
                       lambda fh: list(iter(lambda: fh.readlines(block_chars), [])))
    assert [text for text, _ in got] == ["".join(lines) for lines in want]
    assert all(lines is None for _, lines in got)
    assert len(want) > 1 or block_chars > len(body)
    # a caller's stream keeps its own lines
    stream = io.StringIO(body, newline="")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_READ_BLOCK_CHARS", block_chars)
        assert list(ingest._blocks(stream, False)) == [("".join(lines), lines) for lines in want]


# every character that str.strip removes and a field may hold: all the ASCII ones
# ("\n" and "\r" end lines), then some that are not ASCII
STRIPPED = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2000\u3000"


@pytest.mark.parametrize("space", STRIPPED)
def test_padded_fields_are_stripped_by_the_block_parser(monkeypatch, space):
    lines = good_lines(40)
    for k in range(1, 40, 7):
        lines[k] = ",".join(space + f + space for f in lines[k][:-1].split(",")) + "\n"
    monkeypatch.setattr(ingest, "_parse_price_rows", row_loop)
    for block_chars in BLOCK_CHARS:
        assert compare_to_oracle(lines, block_chars).asset_ids == list(SYMBOLS)


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("n_symbols", [1 << 16, (1 << 16) + 1])
def test_grouping_sort_at_the_16_bit_key_limit(n_symbols, fault):
    # up to 65,536 symbols the rows sort by 16-bit keys, the largest being 65,535
    rng = np.random.default_rng(n_symbols)
    names = [f"S{k:05d}" for k in range(n_symbols)]
    lines = [f"{stamp('2024-01-03', 34200 + m)},{names[k]},{m + 1}.5\n"
             for m in range(2) for k in rng.permutation(n_symbols).tolist()]
    if fault:  # the last symbol quotes at the opening second again
        lines.append(f"{stamp('2024-01-03', 34200)},{names[-1]},3.5\n")
    # no pooled load: under pytest each added up to a second to these tests, and the
    # merged codes of the ranges reach the same sort as on the smaller inputs
    got = compare_to_oracle(lines, ingest._READ_BLOCK_CHARS, pool_cpus=())
    if fault:
        assert got == (f"line {len(lines) + 1}: timestamps for symbol {names[-1]!r} must be "
                       "strictly increasing")
    else:
        assert got.asset_ids == names


def test_lone_surrogate_in_a_stream_stays_on_the_block_parser(monkeypatch):
    # a str may hold a lone surrogate, which a file's UTF-8 never decodes to
    lines = good_lines(6)
    lines[1] = lines[1].replace(",BBB,", ",B\ud800B,")
    text = HEADER_LINE + "".join(lines)
    want = oracle_panel(text, CALENDARS[0])
    monkeypatch.setattr(ingest, "_parse_price_rows", row_loop)
    got = load_prices(io.StringIO(text, newline=""), CALENDARS[0])
    assert_same_panel(got, want)
    assert "B\ud800B" in got.asset_ids


def load_file(tmp_path, data, cpus, block_chars=ingest._READ_BLOCK_CHARS, interval=None):
    """(outcome, use_ranges record, byte ranges) of loading ``data`` from a file in byte
    ranges on ``cpus`` CPUs."""
    path = tmp_path / "prices.csv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_READ_BLOCK_CHARS", block_chars)
        seen = use_ranges(mp, cpus)
        got = outcome(load_prices, path, CALENDARS[0], interval)
    return got, seen, ingest._byte_ranges(path, len(data), cpus)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_panel(got, want)


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
@pytest.mark.parametrize("cpus", POOL_CPUS)
def test_plain_file_is_parsed_in_ranges(tmp_path, cpus, block_chars):
    text = tick_tape(6, CALENDARS[0])  # blank lines and padded fields included
    want = oracle_panel(text, CALENDARS[0])
    # CRLF, a byte-order mark, and a last line without its newline
    for variant in (text, text.replace("\n", "\r\n"), "﻿" + text, text[:-1]):
        got, seen, _ = load_file(tmp_path, variant.encode(), cpus, block_chars)
        assert_same_panel(got, want)
        assert seen == [cpus]  # every range was accepted


@pytest.mark.parametrize("cpus", POOL_CPUS)
@pytest.mark.parametrize("text", [
    HEADER_LINE,
    HEADER_LINE + "\n",
    HEADER_LINE + GOOD,  # the cuts fall inside the last line
    HEADER_LINE + GOOD + "\n",
])
def test_empty_byte_ranges(tmp_path, cpus, text):
    got, seen, ranges = load_file(tmp_path, text.encode(), cpus)
    assert_same_outcome(got, oracle_panel(text, CALENDARS[0]))
    assert seen == [cpus]
    assert any(start == stop for start, stop in ranges)


@pytest.mark.parametrize("cpus", POOL_CPUS)
def test_blank_lines_at_a_cut(tmp_path, cpus):
    lines = good_lines(30)
    lines.append(lines[0])  # a regression on the last line, numbered past every blank line
    path, loaded = tmp_path / "cut.csv", 0
    for where in range(len(lines)):
        for blanks in ("\n", "\n\n\n"):
            text = HEADER_LINE + "".join(lines[:where]) + blanks + "".join(lines[where:])
            data = text.encode()
            path.write_bytes(data)
            # load only where a blank line ends just before a cut or starts the range after it
            if not any(b"\n\n" in data[start - 2:start + 1]
                       for start, _ in ingest._byte_ranges(path, len(data), cpus)[1:]):
                continue
            got, seen, _ = load_file(tmp_path, data, cpus)
            assert got == oracle_panel(text, CALENDARS[0])
            assert got == (f"line {len(lines) + len(blanks) + 1}: timestamps for symbol 'AAA' "
                           "must be strictly increasing")
            assert seen == [cpus, "whole file"]  # the ranges count no lines: the stream words it
            loaded += 1
    assert loaded >= cpus - 1


def last_range_case(tmp_path, cpus, last, block_chars=ingest._READ_BLOCK_CHARS):
    """Load 60 good lines then ``last`` (bytes) in byte ranges: (outcome, use_ranges
    record, the text as a file load without ranges sees it)."""
    data = (HEADER_LINE + "".join(good_lines(60))).encode() + last
    got, seen, ranges = load_file(tmp_path, data, cpus, block_chars)
    assert ranges[-1][0] < len(data) - len(last)  # ``last`` lies in the last range
    return got, seen, data


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
@pytest.mark.parametrize("cpus", POOL_CPUS)
def test_quoted_record_in_the_last_range(tmp_path, cpus, block_chars):
    got, seen, data = last_range_case(tmp_path, cpus, b'2024-01-03T10:00:00,"D\nD",5.0\n',
                                      block_chars)
    assert seen == [cpus, "whole file"]  # the range is refused, and the file read as a stream
    want = oracle_panel(data.decode(), CALENDARS[0])
    assert_same_panel(got, want)
    assert "D\nD" in got.asset_ids


@pytest.mark.parametrize("cpus", POOL_CPUS)
@pytest.mark.parametrize("last, message, seen_after", [
    (b"2024-01-03T10:00:00,AAA,cheap\n", "line 62: unparseable price 'cheap'", ["whole file"]),
    # a regression drops the ranges too, which count no lines
    (f"{GOOD}\n".encode(), "line 62: timestamps for symbol 'AAA' must be strictly increasing",
     ["whole file"]),
])
def test_fault_in_the_last_range_names_the_files_line(tmp_path, cpus, last, message,
                                                      seen_after):
    got, seen, data = last_range_case(tmp_path, cpus, last)
    assert got == oracle_panel(data.decode(), CALENDARS[0]) == message
    assert seen == [cpus, *seen_after]


def regression_at(line):
    return f"line {line}: timestamps for symbol 'AAA' must be strictly increasing"


def test_regression_on_a_quote_that_the_cut_drops():
    # cut to 30 minutes, the slot keeps only its last quote, 09:50, and not the regressing 09:40
    text = HEADER_LINE + "".join(f"2024-01-03T09:{m}:00,AAA,1.0\n" for m in (45, 40, 50))
    assert oracle_panel(text, CALENDARS[0]) == regression_at(3)
    for block_chars in BLOCK_CHARS:
        assert library_loads(text, CALENDARS[0], block_chars, interval=30) == (
            LOADS * [regression_at(3)])


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
def test_regression_across_a_block_boundary_when_cut(block_chars):
    lines = good_lines(3 * block_chars // 30 + 9)
    third = block_starts(lines, block_chars)[2]
    lines[third - 2] = lines[0]  # AAA at the opening second again opens the third block
    text = HEADER_LINE + "".join(lines)
    assert oracle_panel(text, CALENDARS[0]) == regression_at(third)
    assert library_loads(text, CALENDARS[0], block_chars, interval=30) == (
        LOADS * [regression_at(third)])


@pytest.mark.parametrize("cpus", POOL_CPUS)
def test_regression_across_a_range_boundary_when_cut(tmp_path, cpus):
    lines = good_lines(60)
    data = (HEADER_LINE + "".join(lines)).encode()
    path = tmp_path / "prices.csv"
    path.write_bytes(data)
    # every line is 30 bytes long, so the cuts stay where they are when one line is replaced
    first = (ingest._byte_ranges(path, len(data), cpus)[-1][0] - len(HEADER_LINE)) // 30
    lines[first] = lines[0]  # the last range's first line: AAA at the opening second again
    data = (HEADER_LINE + "".join(lines)).encode()
    got, seen, ranges = load_file(tmp_path, data, cpus, interval=30)
    assert ranges[-1][0] == len(HEADER_LINE) + 30 * first
    assert got == oracle_panel(data.decode(), CALENDARS[0]) == regression_at(first + 2)
    assert seen == [cpus, "whole file"]  # found at the cut, and worded by the stream


@pytest.mark.parametrize("cpus", POOL_CPUS)
def test_undecodable_byte_in_a_later_range(tmp_path, cpus):
    def message(*args):
        with pytest.raises(UnicodeDecodeError) as excinfo:
            args[0](*args[1:])
        return str(excinfo.value)

    got = message(last_range_case, tmp_path, cpus, b"2024-01-03T10:00:00,\xff,5.0\n")
    want = message(load_prices, tmp_path / "prices.csv", CALENDARS[0])  # as a stream
    assert got == want
    assert "can't decode byte 0xff" in got


@pytest.mark.parametrize("cpus", POOL_CPUS)
def test_header_off_the_plain_form_keeps_the_stream(tmp_path, cpus):
    text = " timestamp, symbol ,price\n" + "".join(good_lines(60))
    got, seen, ranges = load_file(tmp_path, text.encode(), cpus)
    assert ranges is None
    assert seen == [cpus, "whole file"]
    assert_same_panel(got, oracle_panel(text, CALENDARS[0]))
