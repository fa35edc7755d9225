"""Streamed CSV writers against the row-loop oracles, byte for byte."""

import datetime as dt
import io
import multiprocessing
import os
import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from oracles import (
    difference_csv_text,
    grid_csv_text,
    price_csv_text,
    relation_csv_text,
    tail_curve_csv_text,
)

from copuladyn import copula, synth
from copuladyn.copula import (
    CopulaGrid,
    average_pairwise_density,
    empirical_copula_density,
    write_grid_csv,
)
from copuladyn.gaussian import DifferenceGrid, difference_map, gaussian_grid, write_difference_csv
from copuladyn.ingest import TradingCalendar
from copuladyn.synth import SynthSpec, sample_panel, write_price_csv
from copuladyn.taildep import (
    TailCurve,
    WindowReport,
    pearson_matrix,
    tail_curve,
    windowed_reports,
    write_relation_csv,
    write_tail_curve_csv,
)

CAL = TradingCalendar()
SHORT_CAL = TradingCalendar(
    open_time=dt.time(10, 0),
    close_time=dt.time(15, 15),
    holidays=frozenset({dt.date(2011, 3, 2)}),
)


def written(writer, destination, tmp_path):
    """Run ``writer`` on a path or an ``io.StringIO`` and return the text."""
    if destination == "path":
        target = tmp_path / "out.csv"
        writer(target)
        return target.read_bytes().decode()
    buf = io.StringIO()
    writer(buf)
    return buf.getvalue()


PANELS = [
    # (spec, calendar, start, interval, writer keywords)
    (SynthSpec("gaussian", 2, 13, 1, 0.5), CAL, "2007-01-02", 30, {}),  # one whole session
    (SynthSpec("gaussian", 5, 137, 2, 0.3), CAL, "2007-01-02", 30, {}),  # partial final session
    (SynthSpec("independent", 3, 20, 3), CAL, "2008-12-30", 60, {}),  # --dt 60, partial
    (SynthSpec("comonotone", 4, 1, 4), CAL, "2007-01-02", 30, {}),  # a single return
    (SynthSpec("countermonotone", 2, 26, 5), CAL, "2010-06-30", 120, {}),
    (SynthSpec("gaussian", 12, 300, 6, -0.05), CAL, "2007-01-05", 30, {}),
    (SynthSpec("gaussian", 3, 50, 7, 0.9), SHORT_CAL, "2011-02-28", 60,
     {"base_price": 1.0, "scale": 1e-5}),
    (SynthSpec("independent", 2, 9, 8), CAL, "2007-01-02", 240, {"base_price": 3e-4}),
]


@pytest.mark.parametrize("destination", ["path", "stream"])
@pytest.mark.parametrize("spec,calendar,start,interval,kw", PANELS)
def test_price_csv_matches_row_loop_oracle(tmp_path, destination, spec, calendar, start,
                                           interval, kw):
    mat = sample_panel(spec, calendar=calendar, start=start, interval=interval)
    text = written(lambda dest: write_price_csv(mat, calendar, dest, **kw), destination, tmp_path)
    assert text == price_csv_text(mat, calendar, **kw)


def _grids():
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal(40), rng.standard_normal(40)
    panel = sample_panel(SynthSpec("gaussian", 6, 260, 9, 0.4))
    tiny = np.array([[0.0, 3.0e-5], [1.0e-9, 5e-324]])
    return {
        # sparse: most of the 400 cells hold exactly 0.0
        "empirical-sparse": empirical_copula_density(a, b, 20),
        "pairwise": average_pairwise_density(panel, 10),
        # corner masses far below 1e-4 print in exponent form
        "gaussian-0.99": gaussian_grid(0.99, 50),
        "gaussian-minus-1": gaussian_grid(-1.0, 4),
        "hand-made": CopulaGrid(
            resolution=2,
            density=tiny,
            cumulative=np.array([[0.0, 0.0, 0.0], [0.0, 1e-300, 2.5e-7], [0.0, 0.5, 1.0]]),
            sample_count=0,
        ),
        # 0.0 == -0.0, so a memo keyed on the float would print both alike
        "signed-zeros": CopulaGrid(
            resolution=2,
            density=np.array([[0.0, -0.0], [-0.0, 0.0]]),
            cumulative=np.array([[0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [0.0, 0.0, -0.0]]),
            sample_count=0,
        ),
        # an integer-valued grid still prints floats ("1.0", not "1")
        "integer-dtype": CopulaGrid(
            resolution=2,
            density=np.array([[1, 0], [0, 1]]),
            cumulative=np.array([[0, 0, 0], [0, 1, 1], [0, 1, 2]]),
            sample_count=2,
        ),
    }


@pytest.mark.parametrize("permille", [False, True])
@pytest.mark.parametrize("destination", ["path", "stream"])
@pytest.mark.parametrize("name", sorted(_grids()))
def test_grid_csv_matches_oracle(tmp_path, name, destination, permille):
    grid = _grids()[name]
    text = written(lambda dest: write_grid_csv(grid, dest, permille=permille), destination,
                   tmp_path)
    assert text == grid_csv_text(grid, permille=permille)


def test_grid_cases_cover_exponents_and_exact_zeros():
    texts = [grid_csv_text(g, permille=True) for g in _grids().values()]
    assert any("e-" in t for t in texts)
    assert any(",0.0," in t for t in texts)
    assert any(",-0.0," in t for t in texts)
    assert all(t.splitlines()[0].endswith(",density_permille") for t in texts)


def _differences():
    panel = sample_panel(SynthSpec("gaussian", 6, 260, 9, 0.4))
    return {
        "pairwise": difference_map(average_pairwise_density(panel, 10), pearson_matrix(panel)),
        # d_permille holds 0.0 and -0.0, and values that print in exponent form
        "hand-made": DifferenceGrid(
            resolution=3,
            values=np.array([[0.0, -0.0, 1e-310], [-0.0, 0.0, -2.5e-7], [5e-324, 0.0, -0.0]]),
        ),
        "integer-dtype": DifferenceGrid(resolution=2, values=np.array([[1, 0], [0, -1]])),
    }


@pytest.mark.parametrize("destination", ["path", "stream"])
@pytest.mark.parametrize("name", sorted(_differences()))
def test_difference_csv_matches_oracle(tmp_path, name, destination):
    diff = _differences()[name]
    text = written(lambda dest: write_difference_csv(diff, dest), destination, tmp_path)
    assert text == difference_csv_text(diff)


def test_difference_cases_cover_signed_zeros():
    text = difference_csv_text(_differences()["hand-made"])
    assert ",0.0\n" in text and ",-0.0\n" in text


def _tail_curves():
    grid = average_pairwise_density(sample_panel(SynthSpec("gaussian", 5, 300, 4, 0.6)), 20)
    return {
        "pairwise": tail_curve(grid, [0.05, 0.1, 0.25, 0.5]),
        "survival": tail_curve(grid, [0.05, 0.5], upper_convention="survival"),
        "hand-made": TailCurve(alphas=np.array([1e-5, 0.5]), lower=np.array([0.0, -0.0]),
                               upper=np.array([5e-324, 1.0])),
    }


@pytest.mark.parametrize("destination", ["path", "stream"])
@pytest.mark.parametrize("name", sorted(_tail_curves()))
def test_tail_curve_csv_matches_oracle(tmp_path, name, destination):
    curve = _tail_curves()[name]
    text = written(lambda dest: write_tail_curve_csv(curve, dest), destination, tmp_path)
    assert text == tail_curve_csv_text(curve)


def _report_lists():
    panel = sample_panel(SynthSpec("gaussian", 4, 130, 11, 0.5))
    tiny = TailCurve(alphas=np.array([0.02, 0.5]), lower=np.array([-0.0, 0.0]),
                     upper=np.array([1e-300, 1.0]))
    return {
        "windows": windowed_reports(panel, 3, 5, [0.02, 0.1, 0.25]),
        "survival": windowed_reports(panel, 5, 4, [0.5], upper_convention="survival"),
        "hand-made": [WindowReport(window_start=dt.date(2007, 1, 2), window_end=dt.date(2007, 1, 3),
                                   mean_correlation=-0.0, tail=tiny, gaussian_tail=tiny,
                                   sample_count=26)],
        "none": [],
    }


@pytest.mark.parametrize("destination", ["path", "stream"])
@pytest.mark.parametrize("name", sorted(_report_lists()))
def test_relation_csv_matches_oracle(tmp_path, name, destination):
    reports = _report_lists()[name]
    text = written(lambda dest: write_relation_csv(reports, dest), destination, tmp_path)
    assert text == relation_csv_text(reports)


def use_pool(monkeypatch, cpus):
    """Let ``write_price_csv`` see ``cpus`` usable CPUs and no minimum size for its pool.

    Returns the list that collects the worker count of each call, 0 for one
    formatted in this process.
    """
    counts = []

    def worker_count(rows, n_chunks):
        counts.append(real(rows, n_chunks))
        return counts[-1]

    real = synth._worker_count
    monkeypatch.setattr(synth, "_PARALLEL_MIN_ROWS", 0)
    monkeypatch.setattr(synth, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(synth, "_worker_count", worker_count)
    return counts


def test_price_csv_peak_memory_per_row(tmp_path, monkeypatch):
    mat = sample_panel(SynthSpec("gaussian", 20, 6500, 1, 0.3))
    target = tmp_path / "prices.csv"
    # both paths, looped so that the test id stays: in this process, then in 2 workers
    for cpus in (1, 2):
        with monkeypatch.context() as mp:
            counts = use_pool(mp, cpus)
            write_price_csv(mat, CAL, target)  # warm up, the pool modules' imports included
            tracemalloc.start()
            try:
                write_price_csv(mat, CAL, target)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert counts == [0 if cpus == 1 else 2] * 2
        rows = target.read_bytes().count(b"\n") - 1
        assert rows == 20 * (6500 + 500)  # 500 sessions of 13 returns, 14 endpoints each
        # the price paths take 8 bytes a row; Python floats for the whole panel would
        # add 32. tracemalloc sees only this process, where the workers' texts arrive
        assert peak < 24 * rows, (cpus, peak / rows)


# (destination, usable CPUs for write_price_csv's pool or None for the default
# settings); the ids of the default cases are those of the destination alone
POOL_CASES = [(dest, None) for dest in ("path", "stream")] + [
    (dest, cpus) for cpus in (1, 2, 3) for dest in ("path", "stream")]


@pytest.mark.parametrize("destination,cpus", POOL_CASES,
                         ids=[d if c is None else f"{d}-cpus{c}" for d, c in POOL_CASES])
# prices, in the pool cases: a chunk closes at one session's rows + extra (the
# pool's _CHUNK_ROWS boundary); grid: line count = write block + extra
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_writers_at_block_boundaries(tmp_path, monkeypatch, destination, extra, cpus):
    # nine sessions of 13 returns (42 rows each), then a partial one of 4 (15 rows)
    mat = sample_panel(SynthSpec("gaussian", 3, 13 * 9 + 4, 12, 0.2))
    grid = gaussian_grid(0.3, 5)
    grid_lines = grid_csv_text(grid, permille=True).count("\n")
    if cpus:
        counts = use_pool(monkeypatch, cpus)
        # a chunk closes once it reaches a whole session's rows + extra: ten
        # one-session chunks, or at +1 five of two sessions; either is more
        # than the four chunks that two workers keep in flight
        monkeypatch.setattr(synth, "_CHUNK_ROWS", 3 * 14 + extra)

    text = written(lambda dest: write_price_csv(mat, CAL, dest), destination, tmp_path)
    assert text == price_csv_text(mat, CAL)
    if cpus:
        assert counts == [cpus if cpus > 1 else 0]

    monkeypatch.setattr(copula, "_WRITE_BLOCK_LINES", grid_lines - extra)
    text = written(lambda dest: write_grid_csv(grid, dest, permille=True), destination, tmp_path)
    assert text == grid_csv_text(grid, permille=True)


class _RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


# line counts as (blocks, extra lines): 0, 1, block - 1, block, block + 1, 2 blocks + 1
COUNTS = [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]


@pytest.mark.parametrize("destination", ["path", "stream"])
@pytest.mark.parametrize("blocks,extra", COUNTS)
def test_write_lines_equals_join(tmp_path, destination, blocks, extra):
    n = blocks * copula._WRITE_BLOCK_LINES + extra
    lines = [f"row {k},{k * 0.5!r}" for k in range(n)]
    text = written(lambda dest: copula._write_lines(dest, iter(lines)), destination, tmp_path)
    assert text == "\n".join(lines) + "\n"


@pytest.mark.parametrize("blocks,extra", COUNTS)
def test_write_lines_streams_in_blocks(blocks, extra):
    block = copula._WRITE_BLOCK_LINES
    n = blocks * block + extra
    stream = _RecordingStream()
    copula._write_lines(stream, (str(k) for k in range(n)))
    assert len(stream.calls) == max(1, -(-n // block))
    assert max(call.count("\n") for call in stream.calls) <= block
    assert stream.getvalue() == "\n".join(str(k) for k in range(n)) + "\n"


def test_price_csv_validates_scale_before_opening(tmp_path):
    mat = sample_panel(SynthSpec("gaussian", 2, 100, 1, 0.0))
    target = tmp_path / "prices.csv"
    target.write_bytes(b"timestamp,symbol,price\nkeep,me,1.0\n")
    with pytest.raises(ValueError, match="scale"):
        write_price_csv(mat, CAL, target, scale=10.0)
    assert target.read_bytes() == b"timestamp,symbol,price\nkeep,me,1.0\n"


def test_price_csv_rejects_scale_before_opening_or_forking(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    use_pool(monkeypatch, 2)
    monkeypatch.setattr(synth, "_CHUNK_ROWS", 1)
    monkeypatch.setattr(os, "fork", no_fork)
    mat = sample_panel(SynthSpec("gaussian", 2, 100, 1, 0.0))
    # opening a file in a missing directory would raise FileNotFoundError instead
    with pytest.raises(ValueError, match="scale"):
        write_price_csv(mat, CAL, tmp_path / "missing" / "prices.csv", scale=10.0)


@pytest.mark.parametrize("destination", ["path", "stream"])
def test_price_csv_worker_error_reaches_the_caller(tmp_path, monkeypatch, destination):
    def failing(inputs, bounds):
        if bounds[0] == 2:
            raise ValueError(f"chunk from session {bounds[0]} failed")
        return format_chunk(inputs, bounds)

    format_chunk = synth._format_chunk
    counts = use_pool(monkeypatch, 2)
    monkeypatch.setattr(synth, "_CHUNK_ROWS", 1)  # one chunk per session
    monkeypatch.setattr(synth, "_format_chunk", failing)
    mat = sample_panel(SynthSpec("gaussian", 3, 13 * 6, 1, 0.2))
    with pytest.raises(ValueError, match="chunk from session 2 failed"):
        written(lambda dest: write_price_csv(mat, CAL, dest), destination, tmp_path)
    assert counts == [2]


def test_pool_keeps_a_bounded_number_of_chunks_in_flight():
    submitted = []

    class Pool:
        def submit(self, fn, bounds):
            submitted.append(bounds)
            future = Future()
            future.set_result(str(bounds))
            return future

    chunks = [(n, n + 1) for n in range(10)]
    for n, text in enumerate(synth._in_order(Pool(), chunks, 4)):
        assert text == str(chunks[n])
        # chunk n is written while chunks n + 1 to n + 3 are still queued or running
        assert len(submitted) == min(n + 4, len(chunks))


@pytest.mark.parametrize("reason", ["another thread runs", "no fork start method"])
def test_price_csv_formats_in_process_when_it_cannot_fork(monkeypatch, reason):
    counts = use_pool(monkeypatch, 2)
    monkeypatch.setattr(synth, "_CHUNK_ROWS", 1)
    mat = sample_panel(SynthSpec("gaussian", 3, 13 * 6, 1, 0.2))
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    if reason == "another thread runs":
        other.start()
    else:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    try:
        text = written(lambda dest: write_price_csv(mat, CAL, dest), "stream", None)
    finally:
        release.set()
        if other.ident is not None:
            other.join(10)
    assert not other.is_alive()
    assert counts == [0]
    assert text == price_csv_text(mat, CAL)
