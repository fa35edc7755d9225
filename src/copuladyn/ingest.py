"""Price ingestion, trading calendar, and intraday return computation.

Input CSV is UTF-8 (a leading byte-order mark is allowed) with header
``timestamp,symbol,price``: ISO-8601 timestamps at seconds resolution, one row
per (timestamp, symbol). Rows outside the trading calendar's sessions are
dropped and counted; rows inside are kept as parsed, one time-ordered quote
run per asset, so the panel grows with the row count and not with assets x
timestamps.

The input is read in text blocks of whole lines, about ``_READ_BLOCK_CHARS``
characters each, whose line ends and commas numpy finds. A plain block (no
quote, no lone carriage return, two commas on every line that is not empty, no
line over ``csv.field_size_limit()``) is parsed column-wise with whole-block
calls; it skips empty lines, as ``csv.reader`` does, and a line of spaces is
not empty. Any other block goes to a row-at-a-time ``csv.reader`` loop, which
handles quoted fields and records spanning lines. It stops at the first record
boundary at or after the block's end; the next block is tried column-wise.
``_columns`` converts each block's fields and words every value fault; the row
loop words only field counts and tokeniser errors. The first row fault in the file
is reported, by its physical line.

A path to a regular file of at least ``_PARALLEL_MIN_BYTES`` bytes whose header
is one plain line is parsed in byte ranges, one per CPU this process may use,
when there are two or more such CPUs, no other thread runs and the platform can
fork. The ranges are cut at line starts; this process parses the first and
forked workers the others, each block by block as above, with its own symbol
codes and line numbers, which are then merged in file order. A range with a
block that is not plain, a value fault or a byte that is not UTF-8 drops every
range and ends the workers still parsing, and the file is read again as one
stream, so faults are worded as above.

Returns are arithmetic, r(t) = (P(t + dt) - P(t)) / P(t), computed on a fixed
per-session endpoint grid (session open, open + dt, ...). Prices at endpoints
resolve by previous tick within the session; no return ever spans a session
boundary, so there are no overnight returns.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import logging
import math
import os
import re
import stat
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, takewhile

import numpy as np

from ._pool import ordered, usable_cpus as _usable_cpus, worker_count

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

logger = logging.getLogger(__name__)


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
    fell outside trading sessions and were dropped.
    """

    asset_ids: list
    offsets: np.ndarray
    quote_ts: np.ndarray
    quote_px: np.ndarray
    calendar: TradingCalendar
    excluded_count: int = 0

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
# characters the column-wise parser reads at a time; its working memory scales with this
_READ_BLOCK_CHARS = 1 << 18
_ASCII_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f"  # what str.strip removes in ASCII, bar line ends
# file size from which load_prices parses a path in byte ranges (_parse_in_ranges); on 2
# vCPUs the ranges won steadily from 2 MB, but end to end that gain was within the noise
_PARALLEL_MIN_BYTES = 4 << 20
# the header lines that a file cut into byte ranges may start with: csv.reader reads each
# as one physical line holding exactly the header's fields
_HEADER_LINES = tuple(bom + ",".join(_HEADER).encode() + end
                      for bom in (b"", codecs.BOM_UTF8) for end in (b"\n", b"\r\n"))


def load_prices(source, calendar: TradingCalendar) -> PricePanel:
    """Parse a price CSV text stream or path into a PricePanel.

    Rows with timestamps outside the calendar's sessions are dropped and
    counted in ``excluded_count``. Malformed rows, non-positive prices, and
    per-symbol timestamp regressions fail with the offending line number.
    Assets are ordered alphabetically in the panel.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        parsed = _parse_in_ranges(source)
        if parsed is not None:
            return _panel(*parsed, calendar)
        # utf-8-sig drops a leading byte-order mark, as Excel's "CSV UTF-8" writes
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return _parse_prices(fh, calendar, own_file=True)
    return _parse_prices(source, calendar)


def _parse_in_ranges(path):
    """(symbol codes, blocks of columns) of a large regular file parsed in byte ranges, or
    None for ``_parse_prices`` to read it as one stream, which words every fault.

    This process parses the first range while forked workers parse the others; the first
    range in file order that is refused ends them all.
    """
    info = os.stat(path)
    n_ranges = _range_count(info.st_size) if stat.S_ISREG(info.st_mode) else 0
    ranges = _byte_ranges(path, info.st_size, n_ranges) if n_ranges else None
    if ranges is None:
        return None
    with ordered(partial(_parse_range, path), ranges[1:], n_ranges - 1) as results:
        # the first refused range ends the read, and leaving the block ends the workers
        parsed = list(takewhile(lambda part: part is not None,
                                chain([_parse_range(path, ranges[0])], results)))
    if len(parsed) < n_ranges:
        return None
    codes, blocks, offset = {}, [], 1  # the header is line 1
    for range_blocks, symbols, lines in parsed:
        # local codes and line numbers become the file's, one block at a time, in place
        remap = np.array([codes.setdefault(s, len(codes)) for s in symbols], dtype=np.intp)
        for _, code, _, linenos in range_blocks:
            code[:] = remap[code]
            linenos += offset
        blocks += range_blocks
        offset += lines
    return codes, blocks


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


def _range_count(size: int) -> int:
    """Byte ranges for a ``size``-byte file, the first parsed in this process; 0 for none."""
    cpus = _usable_cpus()
    return worker_count(size, cpus, _PARALLEL_MIN_BYTES, cpus)


def _parse_range(path, bounds):
    """(blocks of columns, symbols in order of first appearance, physical lines) of the
    file's bytes in ``range(*bounds)``, which start at a line start; None if a block is not
    plain, has a value fault or is not UTF-8.

    The bytes are read in blocks of whole lines, as ``_blocks`` reads a file. Symbol codes
    and line numbers are local: the range's first line is line 1.
    """
    start, stop = bounds
    codes, blocks, lines = {}, [], 0
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
                parsed = _parse_plain_block(data.decode(), lines)
                if parsed is None:
                    return None
                blocks.append(_columns(*parsed[0], codes))
            except (UnicodeDecodeError, PriceDataError):
                return None
            lines += parsed[1]
            del data, parsed  # the block's bytes and field texts, before the next block
    return blocks, list(codes), lines


def _blocks(stream, own_file):
    """(text, lines) per block of whole lines; ``lines`` is None for a file load_prices opened.

    That file gives the text ``readlines`` would, as it stops once its total exceeds the
    hint. A caller's stream keeps ``readlines``: its newline mode decides where lines end.
    """
    while True:
        if own_file:
            text, lines = stream.read(_READ_BLOCK_CHARS) + stream.readline(), None
        else:
            lines = stream.readlines(_READ_BLOCK_CHARS)
            text = "".join(lines)
        if not text:
            return
        yield text, lines


def _parse_prices(stream, calendar: TradingCalendar, own_file=False) -> PricePanel:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise PriceDataError("empty input: missing header row") from None
    except csv.Error as exc:
        raise PriceDataError(f"line {reader.line_num}: {exc}") from None
    if [h.strip() for h in header] != _HEADER:
        raise PriceDataError(f"line 1: header must be {','.join(_HEADER)!r}")

    codes = {}  # symbol -> integer code, in order of first appearance
    blocks = []  # (timestamps, codes, prices, line numbers) per block of rows
    lineno = reader.line_num  # physical lines consumed so far
    for text, lines in _blocks(stream, own_file):
        parsed = _parse_plain_block(text, lineno)
        if parsed is None or lines and len(lines) != parsed[1]:
            # the row loop takes this block, or one whose stream ends lines elsewhere than
            # at "\n" (found before any value is read), and the rest of a record that
            # spans past its end; the block parser then tries the next block
            lines = lines or io.StringIO(text, newline="").readlines()
            reader = csv.reader(chain(lines, stream))
            parsed = _parse_price_rows(reader, lineno, len(lines)), reader.line_num
        blocks.append(_columns(*parsed[0], codes))
        lineno += parsed[1]
        del parsed  # the block's field texts, before the next block is split
    return _panel(codes, blocks, calendar)


def _panel(codes, blocks, calendar: TradingCalendar) -> PricePanel:
    """The panel of the parsed blocks, whose ``codes`` map symbols in order of first
    appearance; empties ``blocks``."""
    if not sum(block[0].size for block in blocks):
        raise PriceDataError("input contains no data rows")
    ts, code, px, linenos = (np.concatenate(column) for column in zip(*blocks))
    blocks.clear()  # the caller's list too: each column is held once from here on

    keep = calendar.in_session_mask(ts)
    excluded = int(np.count_nonzero(~keep))
    if excluded:
        logger.info("load_prices: excluded %d rows outside trading sessions", excluded)
    if not keep.any():
        raise PriceDataError("all rows fall outside trading sessions")
    ts, code, px = ts[keep], code[keep], px[keep]

    names = list(codes)
    symbols = sorted(names[c] for c in np.flatnonzero(np.bincount(code)).tolist())
    row_of = np.empty(len(codes), dtype=np.uint16 if len(symbols) <= 1 << 16 else np.intp)
    row_of[[codes[s] for s in symbols]] = np.arange(len(symbols))
    # one stable sort (radix, on 16-bit keys) groups each asset's quotes in file order;
    # each quote must be later than the one before, and the earliest offending row is reported
    order = np.argsort(row_of[code], kind="stable")
    row, ts, px = row_of[code[order]], ts[order], px[order]
    regress = (np.diff(row) == 0) & (np.diff(ts).astype(np.int64) <= 0)
    if regress.any():
        first = order[1:][regress].min()
        raise PriceDataError(
            f"line {linenos[np.flatnonzero(keep)[first]]}: timestamps for symbol "
            f"{names[code[first]]!r} must be strictly increasing"
        )
    del code, linenos, keep  # 17 bytes a row; free them before the panel's checks
    return PricePanel(
        asset_ids=symbols,
        offsets=np.searchsorted(row, np.arange(len(symbols) + 1)),
        quote_ts=ts,
        quote_px=px,
        calendar=calendar,
        excluded_count=excluded,
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


def compute_returns(panel: PricePanel, interval: int) -> ReturnMatrix:
    """Arithmetic returns on a fixed per-session endpoint grid.

    Endpoints are session open plus whole multiples of ``interval`` minutes up
    to the close; per session that yields floor(session_minutes / interval)
    return intervals. Endpoint prices resolve by previous tick within the
    session. If any asset has no price at or before an endpoint, every return
    column touching that endpoint is dropped for all assets, keeping the panel
    aligned and every kept return spanning exactly one interval.
    """
    if interval <= 0:
        raise PriceDataError("interval must be positive")
    session_minutes = panel.calendar.session_minutes
    if interval > session_minutes:
        raise PriceDataError(
            f"interval {interval} min exceeds the {session_minutes} min session"
        )
    per_session = session_minutes // interval

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
