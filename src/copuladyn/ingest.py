"""Price ingestion, trading calendar, and intraday return computation.

Input CSV is UTF-8 (a leading byte-order mark is allowed) with header
``timestamp,symbol,price``: ISO-8601 timestamps at seconds resolution, one row
per (timestamp, symbol). Rows outside the trading calendar's sessions are
dropped and counted; rows inside are kept as parsed, one time-ordered quote
run per asset, so the panel grows with the row count and not with assets x
timestamps. Given a return interval, ingest keeps only the last quote of each
asset, session and slot between two endpoints, so the panel grows with the
endpoints instead.

A path to a regular file whose header is one plain line is parsed in byte ranges
cut at line starts, one per process that ``_pool.processes`` grants a file of
its size, with ``_PARALLEL_MIN_BYTES`` as the gate. This process parses the
first and forked workers the others (this process all of them if a fork fails).
A range is read in blocks of whole lines, about ``_READ_BLOCK_CHARS`` bytes
each, whose line ends and commas numpy finds. Each must be plain (no quote, no
lone carriage return, two commas on every line that is not empty, no line over
``csv.field_size_limit()``), and is split column-wise with whole-block calls,
skipping empty lines as ``csv.reader`` does (a line of spaces is not empty).
``_columns`` converts its fields, and ``_Quotes`` drops its off-session rows,
groups the rest by symbol and, given an interval, keeps each slot's last quote.
A range hands back its kept quotes, its off-session row count and each symbol's
first and last in-session timestamp under its own symbol codes, which are merged
in file order; each symbol's first timestamp in a range must be later than its
last in the ranges before.

A block that is not plain, a value fault, a timestamp regression, a byte that is
not UTF-8 or a regression at a range boundary drops every range and ends the
workers still parsing. The file is then read as one stream in ``readlines``
blocks, as are a caller's stream, any other path and a file with another header.
A stream's plain blocks are parsed as above, and any other block by a row loop
on ``csv.reader``, which handles quoted fields and records spanning lines, up to
the first record boundary at or after the block's end. ``_columns`` words every
value fault, the row loop only field counts and tokeniser errors; the first row
fault in the file is reported, by its physical line. ``_utf8`` words a byte that
is not UTF-8 by its line when its block is read, before the block's rows.
``_Quotes`` notes the earliest per-symbol timestamp regression, raised after the
last block, so that a value fault anywhere in the file is reported first.

Returns are arithmetic, r(t) = (P(t + dt) - P(t)) / P(t), computed on a fixed
per-session endpoint grid (session open, open + dt, ...). Prices at endpoints
resolve by previous tick within the session; no return ever spans a session
boundary, so there are no overnight returns.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import math
import os
import re
import stat
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, takewhile

import numpy as np

from ._pool import ordered, processes

__all__ = [
    "PriceDataError",
    "CalendarError",
    "TradingCalendar",
    "PricePanel",
    "ReturnMatrix",
    "load_calendar",
    "load_prices",
    "compute_returns",
]


class PriceDataError(ValueError):
    """Raised when price input violates the CSV contract or panel invariants."""


class CalendarError(ValueError):
    """Raised when a calendar config file cannot be parsed."""


@dataclass(frozen=True)
class TradingCalendar:
    """Trading session definition: open/close clock times, weekdays, holidays."""

    open_time: dt.time = dt.time(9, 30)
    close_time: dt.time = dt.time(16, 0)
    holidays: frozenset = frozenset()

    def __post_init__(self):
        for clock in (self.open_time, self.close_time):
            _check_clock(clock)
        if self.close_time <= self.open_time:
            raise CalendarError("session close must be after session open")

    @property
    def open_offset(self) -> np.timedelta64:
        """Session open as seconds after midnight."""
        return np.timedelta64(self.open_time.hour * 3600 + self.open_time.minute * 60, "s")

    @property
    def session_minutes(self) -> int:
        open_min = self.open_time.hour * 60 + self.open_time.minute
        close_min = self.close_time.hour * 60 + self.close_time.minute
        return close_min - open_min

    def _holiday_array(self) -> np.ndarray:
        return np.array(sorted(self.holidays), dtype="datetime64[D]")

    def in_session_mask(self, timestamps: np.ndarray) -> np.ndarray:
        """Boolean mask of timestamps inside a trading session (bounds inclusive)."""
        ts = timestamps.astype("datetime64[s]")
        days = ts.astype("datetime64[D]")
        clock = ts - days
        open_s = self.open_offset
        close_s = open_s + np.timedelta64(self.session_minutes * 60, "s")
        in_hours = (clock >= open_s) & (clock <= close_s)
        return in_hours & np.is_busday(days, holidays=self._holiday_array())

    def trading_days(self, start, count: int) -> np.ndarray:
        """First ``count`` trading days at or after ``start``."""
        return np.busday_offset(np.datetime64(start, "D"), np.arange(count), roll="forward",
                                holidays=self._holiday_array())


def _check_clock(clock: dt.time) -> dt.time:
    """``clock``, if it is a whole minute with no UTC offset; sessions are counted in minutes."""
    if clock.second or clock.microsecond or clock.tzinfo is not None:
        raise CalendarError(
            f"session time {clock.isoformat()} must be a whole minute (HH:MM) with no UTC offset"
        )
    return clock


def load_calendar(source) -> TradingCalendar:
    """Parse a calendar config: ``open=HH:MM``, ``close=HH:MM``, holiday dates one per line.

    Session times are whole minutes with no UTC offset; any other time fails
    with its line.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    else:
        lines = source.readlines()
    open_time = dt.time(9, 30)
    close_time = dt.time(16, 0)
    holidays = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("open="):
                open_time = _check_clock(dt.time.fromisoformat(line.split("=", 1)[1]))
            elif line.startswith("close="):
                close_time = _check_clock(dt.time.fromisoformat(line.split("=", 1)[1]))
            else:
                holidays.add(dt.date.fromisoformat(line))
        except CalendarError as exc:
            raise CalendarError(f"calendar config line {lineno}: {line!r}: {exc}") from None
        except ValueError as exc:
            raise CalendarError(f"calendar config line {lineno}: {line!r}") from exc
    return TradingCalendar(open_time=open_time, close_time=close_time, holidays=frozenset(holidays))


@dataclass(frozen=True)
class PricePanel:
    """In-session quotes, one run per asset, stored back to back.

    Asset ``asset_ids[k]`` quotes at ``quote_ts[offsets[k]:offsets[k + 1]]``
    (strictly increasing) with prices ``quote_px`` over the same slice; assets
    are in alphabetical order. ``excluded_count`` reports how many input rows
    fell outside trading sessions and were dropped. ``interval`` is None unless
    ``load_prices`` cut the panel to that return interval, in minutes; it then
    holds only the quotes that ``compute_returns`` reads at that interval and at
    its multiples, and ``compute_returns`` refuses any other interval.
    """

    asset_ids: list
    offsets: np.ndarray
    quote_ts: np.ndarray
    quote_px: np.ndarray
    calendar: TradingCalendar
    excluded_count: int = 0
    interval: int | None = None

    def __post_init__(self):
        offsets = np.asarray(self.offsets)
        object.__setattr__(self, "offsets", offsets)
        n = self.quote_ts.size
        if not (offsets.shape == (len(self.asset_ids) + 1,) and offsets.dtype.kind in "iu"
                and offsets[0] == 0 and offsets[-1] == n and (np.diff(offsets) >= 0).all()
                and self.quote_ts.shape == self.quote_px.shape == (n,)):
            raise PriceDataError("offsets must split the quotes into one run per asset")
        if n == 0:
            raise PriceDataError("panel has no in-session rows")
        asset = np.repeat(np.arange(len(self.asset_ids)), np.diff(offsets))
        if np.any((np.diff(asset) == 0) & (np.diff(self.quote_ts).astype(np.int64) <= 0)):
            raise PriceDataError("each asset's quote timestamps must be strictly increasing")
        if not (np.isfinite(self.quote_px).all() and (self.quote_px > 0.0).all()):
            raise PriceDataError("quoted prices must be strictly positive and finite")
        if not bool(self.calendar.in_session_mask(self.quote_ts).all()):
            raise PriceDataError("panel timestamps must lie inside trading sessions")

    @property
    def timestamps(self) -> np.ndarray:
        """Sorted union of all quote timestamps (a derived view; the pipeline never uses it)."""
        return np.unique(self.quote_ts)

    @property
    def prices(self) -> np.ndarray:
        """Dense assets x ``timestamps`` prices, NaN where an asset has no quote (derived view)."""
        union = self.timestamps
        dense = np.full((len(self.asset_ids), union.size), np.nan)
        rows = np.repeat(np.arange(len(self.asset_ids)), np.diff(self.offsets))
        dense[rows, np.searchsorted(union, self.quote_ts)] = self.quote_px
        return dense


@dataclass(frozen=True)
class ReturnMatrix:
    """Aligned K x T matrix of intraday arithmetic returns.

    Column t covers the interval ending at ``timestamps[t]`` inside trading
    session ``session_dates[t]``; every asset shares the same columns, so any
    two rows are synchronous by construction. Instances are immutable and safe
    for concurrent read access.
    """

    asset_ids: list
    interval: int
    returns: np.ndarray
    timestamps: np.ndarray = field(repr=False)
    session_dates: np.ndarray = field(repr=False)

    def __post_init__(self):
        k, t = self.returns.shape
        if k != len(self.asset_ids):
            raise ValueError("returns row count does not match asset_ids")
        if t < 1:
            raise ValueError("return matrix must contain at least one column")
        if self.timestamps.size != t or self.session_dates.size != t:
            raise ValueError("timestamps/session_dates must align with return columns")
        back = np.flatnonzero(self.session_dates[1:] < self.session_dates[:-1])
        if back.size:
            col = int(back[0]) + 1
            raise ValueError(f"session_dates must not decrease: column {col} "
                             f"({self.session_dates[col]}) follows {self.session_dates[col - 1]}")

    @property
    def n_assets(self) -> int:
        return self.returns.shape[0]

    @property
    def n_observations(self) -> int:
        return self.returns.shape[1]

    @property
    def period(self):
        """(start date, end date) of the covered trading sessions."""
        return (self.session_dates[0].item(), self.session_dates[-1].item())


_HEADER = ["timestamp", "symbol", "price"]
# bytes a range (characters a stream) is read in at a time; working memory scales with this
_READ_BLOCK_CHARS = 1 << 18
_ASCII_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f"  # what str.strip removes in ASCII, bar line ends
# file size from which load_prices parses a path in byte ranges (_parse_in_ranges); on 2
# vCPUs the ranges won steadily from 2 MB, but end to end that gain was within the noise
_PARALLEL_MIN_BYTES = 4 << 20
# the header lines that a file cut into byte ranges may start with: csv.reader reads each
# as one physical line holding exactly the header's fields
_HEADER_LINES = tuple(bom + ",".join(_HEADER).encode() + end
                      for bom in (b"", codecs.BOM_UTF8) for end in (b"\n", b"\r\n"))
# what a byte that is not UTF-8 decodes to under errors="surrogateescape"
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def load_prices(source, calendar: TradingCalendar, interval=None) -> PricePanel:
    """Parse a price CSV text stream or path into a PricePanel.

    Rows with timestamps outside the calendar's sessions are dropped and
    counted in ``excluded_count``. Malformed rows, non-positive prices, and
    per-symbol timestamp regressions fail with the offending line number.
    Assets are ordered alphabetically in the panel.

    With an ``interval`` in minutes, only the last quote of each asset, session
    and slot between two endpoints is kept (see ``_Quotes``); the panel records
    it as ``interval`` and serves ``compute_returns`` at that interval and at its
    multiples, and no other. A regular file with a plain header is parsed in
    byte ranges; any other source, or a file whose ranges refused, as one stream.
    """
    if interval is not None:
        _intervals_per_session(calendar, interval)
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        parsed = _parse_in_ranges(source, calendar, interval)
        if parsed is not None:
            return _panel(*parsed, calendar, interval)
        # utf-8-sig drops a leading byte-order mark, as Excel's "CSV UTF-8" writes; _utf8
        # finds the line of a byte that is not UTF-8
        with open(source, "r", encoding="utf-8-sig", errors="surrogateescape",
                  newline="") as fh:
            return _parse_prices(fh, calendar, interval)
    return _parse_prices(source, calendar, interval)


def _parse_in_ranges(path, calendar, interval):
    """(symbol codes, blocks of in-session quotes, off-session row count) of a regular file
    with a plain header parsed in byte ranges, or None for ``_parse_prices`` to read it as one
    stream, which words every fault.

    One range per process of ``_pool.processes``: this process parses the first, forked
    workers the others; the first range in file order that is refused ends them all. A
    symbol's first quote in a range must be later than its last in the ranges before;
    if not, the stream words the regression.
    """
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        return None
    n_ranges = processes(info.st_size, _PARALLEL_MIN_BYTES)
    ranges = _byte_ranges(path, info.st_size, n_ranges)
    if ranges is None:
        return None
    jobs = [(start, stop, calendar, interval) for start, stop in ranges]
    with ordered(partial(_parse_range, path), jobs, n_ranges) as results:
        # the first refused range ends the read, and leaving the block ends the workers
        parsed = list(takewhile(lambda part: part is not None, results))
    if len(parsed) < n_ranges:
        return None
    codes, blocks, excluded, last = {}, [], 0, np.empty(0, np.int64)
    for range_blocks, range_excluded, symbols, range_first, range_last in parsed:
        # local codes become the file's, one block at a time, in place
        remap = np.array([codes.setdefault(s, len(codes)) for s in symbols], dtype=np.intp)
        last = np.append(last, np.full(len(codes) - last.size, _EARLIEST))
        if (range_first <= last[remap]).any():
            return None
        last[remap] = np.maximum(last[remap], range_last)
        for _, code, _ in range_blocks:
            code[:] = remap[code]
        blocks += range_blocks
        excluded += range_excluded
    return codes, blocks, excluded


def _byte_ranges(path, size: int, n: int):
    """``n`` (start, stop) byte ranges of the lines after the header of a ``size``-byte file,
    cut at line starts into about equal shares; None unless the header is in ``_HEADER_LINES``."""
    with open(path, "rb") as raw:
        if raw.readline(64) not in _HEADER_LINES:
            return None
        cuts = [raw.tell()]
        for k in range(1, n):
            raw.seek(cuts[0] + (size - cuts[0]) * k // n - 1)
            raw.readline()  # to the first line start at or after the k-th share
            cuts.append(raw.tell())
    return list(zip(cuts, cuts[1:] + [size]))


def _parse_range(path, job):
    """(blocks of in-session quotes, off-session row count, symbols in order of first
    appearance, each symbol's first and last in-session timestamp) of the file's bytes from
    ``start`` to ``stop``, for ``job`` = (start, stop, calendar, interval); None if a block is
    not plain, has a value fault or is not UTF-8, or a symbol's timestamps regress.

    ``start`` is a line start. The bytes are read in blocks of whole lines, about
    ``_READ_BLOCK_CHARS`` bytes each, and each plain block goes through ``_columns`` and
    ``_Quotes``. Symbol codes are local.
    """
    start, stop, calendar, interval = job
    codes = {}
    quotes = _Quotes(calendar, interval, codes)
    with open(path, "rb") as raw:
        raw.seek(start)
        while start < stop:
            data = raw.read(min(_READ_BLOCK_CHARS, stop - start))
            if start + len(data) < stop:
                data += raw.readline()  # no further than ``stop``, a line start
            if not data:  # the file was cut short meanwhile
                break
            start += len(data)
            try:
                parsed = _parse_plain_block(data.decode(), 0)
                if parsed is None:
                    return None
                quotes.add(*_columns(*parsed[0], codes))
            except (UnicodeDecodeError, PriceDataError):
                return None
            if quotes.regression:
                return None
            del data, parsed  # the block's bytes and field texts, before the next block
    return quotes.blocks, quotes.excluded, list(codes), quotes.first, quotes.last


def _blocks(stream):
    """(text, lines) per block of whole lines, as ``readlines`` splits them: the stream's
    newline mode decides where its lines end."""
    while lines := stream.readlines(_READ_BLOCK_CHARS):
        yield "".join(lines), lines


def _utf8(lines, lineno: int):
    """Yield ``lines``, the first of which is line ``lineno + 1``; raise PriceDataError at the
    first that holds a byte that is not UTF-8, which a file read by ``load_prices`` decodes to
    one of U+DC80 to U+DCFF."""
    for n, line in enumerate(lines, lineno + 1):
        if not line.isascii() and (bad := _NOT_UTF8.search(line)):
            raise PriceDataError(f"line {n}: byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8")
        yield line


def _parse_prices(stream, calendar: TradingCalendar, interval) -> PricePanel:
    reader = csv.reader(_utf8(stream, 0))
    try:
        header = next(reader)
    except StopIteration:
        raise PriceDataError("empty input: missing header row") from None
    except csv.Error as exc:
        raise PriceDataError(f"line {reader.line_num}: {exc}") from None
    if [h.strip() for h in header] != _HEADER:
        raise PriceDataError(f"line 1: header must be {','.join(_HEADER)!r}")

    codes = {}  # symbol -> integer code, in order of first appearance
    quotes = _Quotes(calendar, interval, codes)
    lineno = reader.line_num  # physical lines consumed so far
    for text, lines in _blocks(stream):
        if not text.isascii() and _NOT_UTF8.search(text):
            list(_utf8(lines, lineno))  # raises at its line, before any row of the block
        parsed = _parse_plain_block(text, lineno)
        if parsed is None or len(lines) != parsed[1]:
            # the row loop takes this block, or one whose stream ends lines elsewhere than
            # at "\n" (found before any value is read), and the rest of a record that
            # spans past its end; the block parser then tries the next block
            reader = csv.reader(chain(lines, _utf8(stream, lineno + len(lines))))
            parsed = _parse_price_rows(reader, lineno, len(lines)), reader.line_num
        quotes.add(*_columns(*parsed[0], codes))
        lineno += parsed[1]
        del parsed  # the block's field texts, before the next block is split
    if quotes.regression:  # after the last block, so that a value fault anywhere wins
        line, code = quotes.regression
        raise PriceDataError(f"line {line}: timestamps for symbol {list(codes)[code]!r} "
                             "must be strictly increasing")
    return _panel(codes, quotes.blocks, quotes.excluded, calendar, interval)


# sentinels of _Quotes' per-symbol timestamps: no valid timestamp is as early or as late
_EARLIEST, _LATEST = np.iinfo(np.int64).min, np.iinfo(np.int64).max


class _Quotes:
    """The in-session quotes of the blocks of a file or a byte range, and the earliest
    per-symbol timestamp regression among them.

    ``add`` takes one block's columns. It drops off-session rows and counts them, groups the
    rest by symbol code in file order (one stable radix sort on 16-bit keys), and finds any
    quote not later than its symbol's previous in-session quote, in this block or an earlier
    one. With an ``interval``, it then keeps only the last quote of each (symbol, session,
    slot): slot s covers (open + (s - 1) dt, open + s dt], so slot 0 is the opening second,
    and the quotes after the last endpoint form one more slot. ``compute_returns`` reads each
    endpoint's price from the last quote at or before it in its session, so it reads nothing
    else at ``interval`` or at its multiples. A slot that a block or a range boundary cuts
    keeps one quote on each side, which changes no return.
    """

    def __init__(self, calendar: TradingCalendar, interval, codes: dict):
        self.calendar, self.codes = calendar, codes
        self.blocks = []  # (timestamps, symbol codes, prices) of each block's kept quotes
        self.excluded = 0
        # per symbol code: first and last in-session timestamp, in seconds
        self.first, self.last = np.empty(0, np.int64), np.empty(0, np.int64)
        self.regression = None  # (line, symbol code) of the earliest regressing quote
        self.step = None if interval is None else interval * 60
        if interval is not None:
            self.open_s = int(calendar.open_offset.astype(np.int64))
            self.slots = _intervals_per_session(calendar, interval) + 2

    def add(self, ts, code, px, linenos):
        grow = len(self.codes) - self.last.size
        self.first = np.append(self.first, np.full(grow, _LATEST))
        self.last = np.append(self.last, np.full(grow, _EARLIEST))
        keep = self.calendar.in_session_mask(ts)
        self.excluded += keep.size - int(np.count_nonzero(keep))
        if not keep.all():
            ts, code, px, linenos = ts[keep], code[keep], px[keep], linenos[keep]
        if not ts.size:
            return
        key = code.astype(np.uint16) if len(self.codes) <= 1 << 16 else code
        order = np.argsort(key, kind="stable")
        code, secs, px = code[order], ts.view(np.int64)[order], px[order]
        head = np.ones(code.size, dtype=bool)  # each symbol's first quote in the block
        np.not_equal(code[1:], code[:-1], out=head[1:])
        prev = np.empty_like(secs)
        prev[1:] = secs[:-1]
        prev[head] = self.last[code[head]]
        regress = np.flatnonzero(secs <= prev)
        if regress.size and self.regression is None:
            at = regress[order[regress].argmin()]  # the earliest row in the file
            self.regression = int(linenos[order[at]]), int(code[at])
        tail = np.append(head[1:], True)  # each symbol's last quote in the block
        self.first[code[head]] = np.minimum(self.first[code[head]], secs[head])
        self.last[code[tail]] = secs[tail]
        if self.step:
            day, clock = np.divmod(secs - self.open_s, 86400)  # clock: seconds after open
            slot = day * self.slots - (-clock // self.step)  # ceil(clock / step) in the day
            keep = tail | np.append(slot[1:] != slot[:-1], True)  # each slot's last quote
            code, secs, px = code[keep], secs[keep], px[keep]
        self.blocks.append((secs.view("datetime64[s]"), code, px))


def _panel(codes, blocks, excluded: int, calendar: TradingCalendar, interval) -> PricePanel:
    """The panel of ``blocks`` of in-session quotes, each grouped by symbol in file order,
    whose ``codes`` map symbols in order of first appearance; empties ``blocks``."""
    if not sum(block[0].size for block in blocks):
        raise PriceDataError("all rows fall outside trading sessions" if excluded
                             else "input contains no data rows")
    ts, code, px = (np.concatenate(column) for column in zip(*blocks))
    blocks.clear()  # the caller's list too: each column is held once from here on

    names = list(codes)
    symbols = sorted(names[c] for c in np.flatnonzero(np.bincount(code)).tolist())
    row_of = np.empty(len(codes), dtype=np.uint16 if len(symbols) <= 1 << 16 else np.intp)
    row_of[[codes[s] for s in symbols]] = np.arange(len(symbols))
    # one stable sort (radix, on 16-bit keys) orders the assets, each one's quotes in file order
    order = np.argsort(row_of[code], kind="stable")
    row, ts, px = row_of[code[order]], ts[order], px[order]
    del code  # 8 bytes a row; free it before the panel's checks
    return PricePanel(
        asset_ids=symbols,
        offsets=np.searchsorted(row, np.arange(len(symbols) + 1)),
        quote_ts=ts,
        quote_px=px,
        calendar=calendar,
        excluded_count=excluded,
        interval=interval,
    )


def _parse_plain_block(text, line_offset):
    """(fields, physical line count) of a plain block, or None if the row loop must take it.

    In a plain block no line has a quote or a lone carriage return, every line
    that is not empty has exactly two commas and none is longer than the csv
    module's field limit, so ``csv.reader`` would split each line at its commas
    and nothing else. ``fields`` are the stripped timestamp, symbol and price
    texts and the physical line of each row, as ``_columns`` takes them.
    ``line_offset`` physical lines precede the block; its empty lines, for
    which ``csv.reader`` yields no row, are skipped.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text:
        return None
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    ends = np.flatnonzero(raw == 10)  # each line's newline, as a byte offset
    if not text.endswith("\n"):
        ends = np.append(ends, raw.size)
    length = np.diff(ends, prepend=-1) - 1  # in bytes, which are no fewer than characters
    commas = np.diff(np.searchsorted(np.flatnonzero(raw == 44), ends), prepend=0)
    if (commas != 2 * (length > 0)).any() or length.max() >= csv.field_size_limit():
        return None
    linenos = line_offset + 1 + np.flatnonzero(length)
    n = linenos.size
    if n < ends.size:
        text = re.sub("\n\n+", "\n", text).lstrip("\n")
    fields = text.replace("\n", ",").split(",")
    ts_texts, symbols, prices = fields[0:3 * n:3], fields[1:3 * n:3], fields[2:3 * n:3]
    if not text.isascii() or any(space in text for space in _ASCII_SPACES):
        ts_texts, symbols, prices = (list(map(str.strip, column))
                                     for column in (ts_texts, symbols, prices))
    return (ts_texts, symbols, prices, linenos), ends.size


def _parse_price_rows(reader, line_offset, stop_line):
    """The fields of the rows ``reader`` yields, as ``_parse_plain_block`` gives them.

    Handles what a plain block cannot: quoted fields and records that span
    lines. It words a record without three fields and a tokeniser error, after
    any value fault on an earlier row. ``line_offset`` physical lines precede
    the reader's first one. Reading stops at the first record boundary at or
    after the reader's physical line ``stop_line``, so a record that spans past
    that line is read whole and nothing after it is consumed.
    """
    fields = ts_texts, symbols, prices, linenos = [], [], [], []
    try:
        for row in reader:
            if row:  # an empty line gives no row
                # the physical line the record ends on; a quoted field may span lines
                lineno = line_offset + reader.line_num
                if len(row) != 3:
                    _columns(*fields, {})
                    raise PriceDataError(f"line {lineno}: expected 3 fields, got {len(row)}")
                ts_text, symbol, price = row
                ts_texts.append(ts_text.strip())
                symbols.append(symbol.strip())
                prices.append(price.strip())
                linenos.append(lineno)
            if reader.line_num >= stop_line:
                break
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        _columns(*fields, {})
        raise PriceDataError(f"line {line_offset + reader.line_num}: {exc}") from None
    return fields


def _columns(ts_texts, symbols, prices, linenos, codes):
    """(timestamps, symbol codes, prices, line numbers) of split rows, or the first fault.

    Within a row an empty symbol comes first, then an empty, ``NaT`` or unparseable
    timestamp, an unparseable price, and a price that is not finite and positive.
    New symbols get codes in ``codes``, in order of first appearance, once all rows pass.
    """
    n = len(prices)
    try:
        px = np.fromiter(map(float, prices), np.float64, n)
        ts = np.array(ts_texts, dtype="datetime64[s]")
    except ValueError:
        px = ts = None
    if px is None or "" in symbols or np.isnat(ts).any() or not ((px > 0) & (px < np.inf)).all():
        for ts_text, symbol, price, lineno in zip(ts_texts, symbols, prices, linenos):
            if not symbol:
                raise PriceDataError(f"line {lineno}: empty symbol")
            try:
                bad = np.isnat(np.datetime64(ts_text, "s"))
            except ValueError:
                bad = True
            if bad:
                raise PriceDataError(f"line {lineno}: unparseable timestamp {ts_text!r}")
            try:
                value = float(price)
            except ValueError:
                raise PriceDataError(f"line {lineno}: unparseable price {price!r}") from None
            if not 0.0 < value < math.inf:  # NaN too
                raise PriceDataError(f"line {lineno}: price must be strictly positive, got {price}")
    for symbol in dict.fromkeys(symbols):
        codes.setdefault(symbol, len(codes))
    code = np.fromiter(map(codes.__getitem__, symbols), np.intp, n)
    return ts, code, px, np.asarray(linenos, dtype=np.intp)


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values; a plain ``np.unique`` imports ``numpy.ma`` on first use."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _intervals_per_session(calendar: TradingCalendar, interval) -> int:
    """The return intervals in one session of ``calendar``; refuses an ``interval`` that is
    not positive or is longer than a session."""
    if interval <= 0:
        raise PriceDataError("interval must be positive")
    session_minutes = calendar.session_minutes
    if interval > session_minutes:
        raise PriceDataError(
            f"interval {interval} min exceeds the {session_minutes} min session"
        )
    return session_minutes // interval


def compute_returns(panel: PricePanel, interval: int) -> ReturnMatrix:
    """Arithmetic returns on a fixed per-session endpoint grid.

    Endpoints are session open plus whole multiples of ``interval`` minutes up
    to the close; per session that yields floor(session_minutes / interval)
    return intervals. Endpoint prices resolve by previous tick within the
    session. If any asset has no price at or before an endpoint, every return
    column touching that endpoint is dropped for all assets, keeping the panel
    aligned and every kept return spanning exactly one interval. A panel that
    ``load_prices`` cut to an interval serves only its multiples.
    """
    per_session = _intervals_per_session(panel.calendar, interval)
    if panel.interval is not None and interval % panel.interval:
        raise PriceDataError(f"interval {interval} min is not a multiple of the "
                             f"{panel.interval} min interval that the panel was cut to")

    days = _distinct_sorted(panel.quote_ts.astype("datetime64[D]"))
    step = np.timedelta64(interval * 60, "s")
    midnight = days.astype("datetime64[s]")[:, None]
    # sessions x endpoints
    endpoints = midnight + panel.calendar.open_offset + np.arange(per_session + 1) * step

    grid = np.full((len(panel.asset_ids),) + endpoints.shape, np.nan)
    for row, lo, hi in zip(grid, panel.offsets[:-1].tolist(), panel.offsets[1:].tolist()):
        ts, px = panel.quote_ts[lo:hi], panel.quote_px[lo:hi]
        # previous tick, accepted only when it was quoted in the endpoint's session
        after = np.searchsorted(ts, endpoints, side="right")
        found = after > np.searchsorted(ts, midnight)
        row[found] = px[after[found] - 1]

    endpoint_ok = ~np.isnan(grid).any(axis=0)
    col_ok = endpoint_ok[:, :-1] & endpoint_ok[:, 1:]
    if not col_ok.any():
        raise PriceDataError("no complete return intervals could be formed")
    prev = grid[:, :, :-1][:, col_ok]
    return ReturnMatrix(
        asset_ids=list(panel.asset_ids),
        interval=int(interval),
        returns=(grid[:, :, 1:][:, col_ok] - prev) / prev,
        timestamps=endpoints[:, 1:][col_ok],
        session_dates=np.broadcast_to(days[:, None], col_ok.shape)[col_ok],
    )
