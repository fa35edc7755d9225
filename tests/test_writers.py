"""Streamed CSV writers against the row-loop oracles, byte for byte."""

import datetime as dt
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    difference_csv_text,
    grid_csv_text,
    price_csv_text,
    relation_csv_text,
    tail_curve_csv_text,
)

from copuladyn import cli, copula, synth
from copuladyn.copula import (
    CopulaGrid,
    average_pairwise_density,
    empirical_copula_density,
    write_grid_csv,
    write_grid_csvs,
)
from copuladyn.gaussian import DifferenceGrid, difference_map, gaussian_grid, write_difference_csv
from copuladyn.ingest import TradingCalendar, compute_returns, load_prices
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


# the default repr table, one that keeps a single text, and one that keeps none
REPR_TABLE_CAPS = {"default-cap": copula._REPR_TABLE_CAP, "cap1": 1, "cap0": 0}


def _grid_lists():
    grids = _grids()
    zeros = np.zeros((3, 3))
    panel = sample_panel(SynthSpec("gaussian", 4, 130, 11, 0.5))
    return {
        "cases": [grids[name] for name in sorted(grids)],
        # +0.0 only in one grid and -0.0 only in the next, both in every column
        "split-zeros": [CopulaGrid(resolution=2, density=sign * zeros[1:, 1:],
                                   cumulative=sign * zeros, sample_count=0)
                        for sign in (1.0, -1.0, 1.0)],
        # windows of equal length share most of their count values
        "windows": [rep.grid for rep in windowed_reports(panel, 3, 5, [0.1])],
        "none": [],
    }


@pytest.mark.parametrize("cap", REPR_TABLE_CAPS.values(), ids=REPR_TABLE_CAPS.keys())
@pytest.mark.parametrize("permille", [False, True])
@pytest.mark.parametrize("destination", ["path", "stream"])
@pytest.mark.parametrize("name", sorted(_grid_lists()))
def test_grid_csvs_match_oracle(tmp_path, monkeypatch, name, destination, permille, cap):
    monkeypatch.setattr(copula, "_REPR_TABLE_CAP", cap)
    grids = _grid_lists()[name]
    if destination == "path":
        targets = [tmp_path / f"grid{k}.csv" for k in range(len(grids))]
        write_grid_csvs(grids, targets, permille=permille)
        texts = [target.read_bytes().decode() for target in targets]
    else:
        streams = [io.StringIO() for _ in grids]
        write_grid_csvs(iter(grids), iter(streams), permille)
        texts = [stream.getvalue() for stream in streams]
    assert texts == [grid_csv_text(grid, permille=permille) for grid in grids]


def test_grid_csvs_want_one_destination_per_grid():
    grid = gaussian_grid(0.3, 3)
    with pytest.raises(ValueError):
        write_grid_csvs([grid, grid], [io.StringIO()])


def test_repr_table_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(copula, "_REPR_TABLE_CAP", 3)
    values = np.array([[0.5, -0.0, 0.0, 0.25], [1e-300, 0.5, -0.0, 7.0]])
    table = {}
    assert copula._reprs(values, table) == list(map(repr, values.ravel().tolist()))
    assert table == {np.float64(v).view(np.int64): repr(v) for v in (0.5, -0.0, 0.0)}


def test_grid_csvs_format_each_distinct_value_once(tmp_path, monkeypatch):
    # the dynamics-windows benchmark input at seed 1: 20 ten-day windows of an
    # 18-asset factor panel, m = 50
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    prices = tmp_path / "prices.csv"
    write_price_csv(workloads.factor_returns(1, 18, 20 * 10 * 13), CAL, prices)
    matrix = compute_returns(load_prices(prices, CAL), 30)
    grids = [rep.grid for rep in windowed_reports(matrix, 10, 50, [0.1])]
    cells = np.concatenate([np.concatenate([g.density.ravel(), g.cumulative[1:, 1:].ravel()])
                            for g in grids])
    assert len(grids) == 20 and cells.size == 100_000
    assert np.unique(cells.view(np.int64)).size == 14_178
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(copula, "repr", counted, raising=False)
    write_grid_csvs(grids, [io.StringIO() for _ in grids])
    # one repr per distinct value, plus the 50 u_hi/v_hi texts of each grid
    assert len(calls) == 14_178 + 20 * 50


def test_dynamics_window_files_match_oracle_at_unequal_sample_counts(tmp_path):
    # three symbols quote every half hour for four sessions; on the third, S1 misses
    # its opening print, so that session loses its first return
    rng = np.random.default_rng(3)
    lines = ["timestamp,symbol,price"]
    for day in ("2024-01-02", "2024-01-03", "2024-01-04", "2024-01-05"):
        for minute in range(9 * 60 + 30, 16 * 60 + 1, 30):
            for sym in ("S0", "S1", "S2"):
                if not (day == "2024-01-04" and minute == 9 * 60 + 30 and sym == "S1"):
                    price = float(np.exp(3.0 + rng.normal(0.0, 0.01)))
                    lines.append(f"{day}T{minute // 60:02d}:{minute % 60:02d}:00,{sym},{price!r}")
    prices = tmp_path / "ticks.csv"
    prices.write_text("\n".join(lines) + "\n")
    out = tmp_path / "dyn"
    assert cli.main(["dynamics", "--input", str(prices), "--grid", "5", "--window-days", "2",
                     "--out", str(out)]) == cli.EXIT_OK
    reports = windowed_reports(compute_returns(load_prices(prices, CAL), 30), 2, 5,
                               list(cli._DEFAULT_ALPHAS))
    assert [rep.sample_count for rep in reports] == [26, 25]
    assert [rep.grid.sample_count for rep in reports] == [26 * 3, 25 * 3]
    for idx, rep in enumerate(reports, start=1):
        text = (out / "windows" / f"window_{idx:04d}.csv").read_bytes().decode()
        assert text == grid_csv_text(rep.grid)


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

    def worker_count(rows, n_sessions):
        counts.append(real(rows, n_sessions))
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
            write_price_csv(mat, CAL, target)  # warm up: one-time allocations stay unmeasured
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
# the panel ends one return short of its tenth session's end, at it, or one return past it
# (a session of one return): the price writer's job, in process or in a worker, is a session
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_writers_at_block_boundaries(tmp_path, monkeypatch, destination, extra, cpus):
    # nine sessions of 13 returns (42 rows each), then a tenth of 12 or 13, or 13 and then 1
    mat = sample_panel(SynthSpec("gaussian", 3, 13 * 10 + extra, 12, 0.2))
    grid = gaussian_grid(0.3, 5)
    if cpus:
        # more sessions than workers, each of which runs ahead of the writer
        counts = use_pool(monkeypatch, cpus)

    text = written(lambda dest: write_price_csv(mat, CAL, dest), destination, tmp_path)
    assert text == price_csv_text(mat, CAL)
    if cpus:
        assert counts == [cpus if cpus > 1 else 0]

    text = written(lambda dest: write_grid_csv(grid, dest, permille=True), destination, tmp_path)
    assert text == grid_csv_text(grid, permille=True)


@pytest.mark.parametrize("destination", ["path", "stream"])
def test_price_csv_with_fewer_sessions_than_cpus(tmp_path, monkeypatch, destination):
    counts = use_pool(monkeypatch, 3)
    for sessions in (1, 2):
        mat = sample_panel(SynthSpec("gaussian", 3, 13 * sessions, 5, 0.2))
        text = written(lambda dest: write_price_csv(mat, CAL, dest), destination, tmp_path)
        assert text == price_csv_text(mat, CAL)
    # a worker per session: none for one session, which this process formats
    assert counts == [0, 2]


class _RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


@pytest.mark.parametrize("name", ["grid", "grid-permille", "difference", "grids",
                                  "grids-permille"])
def test_grid_writers_write_one_grid_row_at_a_time(name):
    m = 7
    grid = gaussian_grid(0.4, m)
    # each writer fills the first stream, or one stream per grid
    writers = {
        "grid": lambda dest: write_grid_csv(grid, dest[0]),
        "grid-permille": lambda dest: write_grid_csv(grid, dest[0], permille=True),
        "difference": lambda dest: write_difference_csv(
            DifferenceGrid(resolution=m, values=grid.density - 1.0 / m**2), dest[0]),
        "grids": lambda dest: write_grid_csvs([grid, gaussian_grid(-0.2, m)], dest),
        "grids-permille": lambda dest: write_grid_csvs([grid, grid], dest, permille=True),
    }
    streams = [_RecordingStream(), _RecordingStream()]
    writers[name](streams)
    for stream in streams if name.startswith("grids") else streams[:1]:
        header, *rows = stream.calls
        assert header.count("\n") == 1 and header.endswith("\n")
        assert len(rows) == m
        for i, text in enumerate(rows, start=1):
            assert text.count("\n") == m and text.endswith("\n")
            assert [line.split(",")[:2] for line in text.splitlines()] == [
                [str(i), str(j)] for j in range(1, m + 1)]


def test_relation_writer_writes_one_report_at_a_time():
    reports = _report_lists()["windows"]
    stream = _RecordingStream()
    write_relation_csv(reports, stream)
    header, *texts = stream.calls
    assert header.startswith("window_start,") and header.count("\n") == 1
    assert len(texts) == len(reports) > 1
    for rep, text in zip(reports, texts):
        assert text.count("\n") == rep.tail.alphas.size
        assert all(line.startswith(rep.window_start.isoformat() + ",")
                   for line in text.splitlines())
    assert stream.getvalue() == relation_csv_text(reports)


def test_rows_text_ends_every_row_in_a_newline():
    assert copula._rows_text([[], []]) == ""
    assert copula._rows_text([["a"], ["1"]]) == "a,1\n"
    assert copula._rows_text([["a", "b"], ["1", "2"], iter("xy")]) == "a,1,x\nb,2,y\n"


def _refused_price_calls():
    """(panel, ``write_price_csv`` keywords, message) of calls that would write a price
    ``load_prices`` refuses: one that is 0, negative, NaN or infinite."""
    mat = sample_panel(SynthSpec("gaussian", 2, 100, 1, 0.0))
    nan_return = mat.returns.copy()
    nan_return[1, 50] = np.nan
    tenfold, tenth = np.full_like(mat.returns, 9.0), np.full_like(mat.returns, -0.9)
    return [
        (mat, {"scale": 10.0}, "scale too large"),
        (mat, {"scale": float("nan")}, "scale must be finite"),
        (mat, {"scale": float("inf")}, "scale must be finite"),
        (mat, {"base_price": -5.0}, "base_price must be finite and positive"),
        (mat, {"base_price": 0.0}, "base_price must be finite and positive"),
        (mat, {"base_price": float("inf")}, "base_price must be finite and positive"),
        (mat, {"base_price": float("nan")}, "base_price must be finite and positive"),
        (replace(mat, returns=nan_return), {}, "returns must be finite"),
        # 100 factors of 10 or of 0.1 take a price past the float range either way
        (replace(mat, returns=tenfold), {"scale": 1.0, "base_price": 1e300}, "overflows"),
        (replace(mat, returns=tenth), {"scale": 1.0, "base_price": 1e-300}, "underflows"),
    ]


def test_price_csv_validates_scale_before_opening(tmp_path):
    target = tmp_path / "prices.csv"
    target.write_bytes(b"timestamp,symbol,price\nkeep,me,1.0\n")
    for mat, kw, message in _refused_price_calls():
        with warnings.catch_warnings(), pytest.raises(ValueError, match=message):
            warnings.simplefilter("error")  # refused without a numpy warning first
            write_price_csv(mat, CAL, target, **kw)
        assert target.read_bytes() == b"timestamp,symbol,price\nkeep,me,1.0\n"


def test_price_csv_rejects_scale_before_opening_or_forking(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    counts = use_pool(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    for mat, kw, message in _refused_price_calls():
        # opening a file in a missing directory would raise FileNotFoundError instead
        with pytest.raises(ValueError, match=message):
            write_price_csv(mat, CAL, tmp_path / "missing" / "prices.csv", **kw)
    assert counts == []
    # the same panel with valid settings would take the pool
    assert synth._worker_count(10_000, 100) == 2


@pytest.mark.parametrize("destination", ["path", "stream"])
def test_price_csv_worker_error_reaches_the_caller(tmp_path, monkeypatch, destination):
    def failing(inputs, session):
        if session == 2:
            raise ValueError(f"session {session} failed")
        return format_session(inputs, session)

    format_session = synth._format_session
    counts = use_pool(monkeypatch, 2)
    monkeypatch.setattr(synth, "_format_session", failing)
    mat = sample_panel(SynthSpec("gaussian", 3, 13 * 6, 1, 0.2))
    with pytest.raises(ValueError, match="session 2 failed"):
        written(lambda dest: write_price_csv(mat, CAL, dest), destination, tmp_path)
    assert counts == [2]


@pytest.mark.parametrize("destination", ["path", "stream"])
@pytest.mark.parametrize("ending", [0, 3, 5])
def test_price_csv_raises_when_a_worker_ends_without_its_result(tmp_path, monkeypatch,
                                                                 destination, ending):
    def format_or_exit(inputs, session):
        if session == ending and os.getpid() != caller:
            os._exit(0)  # a worker that ends without sending this session or any later one
        return format_session(inputs, session)

    caller = os.getpid()
    format_session = synth._format_session
    counts = use_pool(monkeypatch, 2)  # session 5 is the last
    monkeypatch.setattr(synth, "_format_session", format_or_exit)
    mat = sample_panel(SynthSpec("gaussian", 3, 13 * 6, 1, 0.2))
    with pytest.raises(ChildProcessError, match="ended before it sent its result"):
        written(lambda dest: write_price_csv(mat, CAL, dest), destination, tmp_path)
    assert counts == [2]


# 120 assets, 10 sessions of 13 returns (1,680 rows, about 76 kB each), so a worker
# cannot put a whole session into its pipe's 64 KiB buffer
BIG_SESSIONS = SynthSpec("gaussian", 120, 13 * 10, 1, 0.2)


def test_price_csv_stream_error_reaches_the_caller_with_the_workers_reaped(monkeypatch):
    class FailingStream(io.StringIO):
        def write(self, text):
            calls.append(len(text))
            if len(calls) == 3:  # the header, session 0, then session 1 fails
                time.sleep(0.2)  # meanwhile both workers block on full pipes
                raise OSError("no space left for session 1")
            return super().write(text)

    def hung(signum, frame):
        pytest.fail("write_price_csv still waits for its workers after 30 s")

    calls = []
    counts = use_pool(monkeypatch, 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)  # a worker whose pipe never breaks would keep waitpid waiting
    try:
        with pytest.raises(OSError, match="no space left for session 1"):
            write_price_csv(sample_panel(BIG_SESSIONS), CAL, FailingStream())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert counts == [2]
    assert len(calls) == 3 and calls[1] > 2**16
    # no_stray_processes (conftest.py) then finds no child process, running or unreaped


def test_pool_formats_at_most_one_chunk_per_worker_ahead_of_the_writer(tmp_path, monkeypatch):
    def logged(inputs, session):  # each worker notes every session it starts
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, b".")
        os.close(fd)
        return format_session(inputs, session)

    class SlowStream(io.StringIO):
        def write(self, text):
            if self.tell():  # past the header: session n = len(ahead) arrives
                time.sleep(0.02)  # time for the workers to run ahead, were they free to
                ahead.append(log.stat().st_size - (len(ahead) + 1))
            return super().write(text)

    log, ahead = tmp_path / "started", []
    format_session = synth._format_session
    counts = use_pool(monkeypatch, 2)
    monkeypatch.setattr(synth, "_format_session", logged)
    mat = sample_panel(BIG_SESSIONS)
    stream = SlowStream()
    write_price_csv(mat, CAL, stream)
    assert counts == [2]
    assert stream.getvalue() == price_csv_text(mat, CAL)
    # while session n is written, each worker may have started its next session (n + 1
    # and n + 2), and none any later one
    assert len(ahead) == 10 and max(ahead) <= 2, ahead


@pytest.mark.parametrize("reason", ["another thread runs", "no fork start method"])
def test_price_csv_formats_in_process_when_it_cannot_fork(monkeypatch, reason):
    counts = use_pool(monkeypatch, 2)
    mat = sample_panel(SynthSpec("gaussian", 3, 13 * 6, 1, 0.2))
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    if reason == "another thread runs":
        other.start()
    else:
        monkeypatch.delattr(os, "fork")
    try:
        text = written(lambda dest: write_price_csv(mat, CAL, dest), "stream", None)
    finally:
        release.set()
        if other.ident is not None:
            other.join(10)
    assert not other.is_alive()
    assert counts == [0]
    assert text == price_csv_text(mat, CAL)


# writes an asset id "ÉTÉ" (spelt with escapes: under LC_ALL=C the interpreter decodes
# its -c argument as ASCII) in process and in 2 forked workers, then reads both files back
UTF8_SCRIPT = """
import json, sys
from dataclasses import replace
from copuladyn import synth
from copuladyn.ingest import TradingCalendar, load_prices
from copuladyn.synth import SynthSpec, sample_panel, write_price_csv

mat = replace(sample_panel(SynthSpec("gaussian", 2, 13 * 6, 1, 0.2)),
              asset_ids=["\\u00c9T\\u00c9", "SYN001"])
counts = []
real = synth._worker_count
synth._worker_count = lambda rows, n_sessions: counts.append(real(rows, n_sessions)) or counts[-1]
synth._PARALLEL_MIN_ROWS = 0
seen = {}
for cpus in (1, 2):  # in this process, then in 2 forked workers
    synth._usable_cpus = lambda: cpus
    target = f"{sys.argv[1]}/cpus{cpus}.csv"
    write_price_csv(mat, TradingCalendar(), target)
    seen[cpus] = load_prices(target, TradingCalendar()).asset_ids
print(json.dumps({"workers": counts, "asset_ids": seen}))
"""


def test_price_csv_is_utf8_whatever_the_locale(tmp_path):
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run([sys.executable, "-c", UTF8_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["workers"] == [0, 2]
    assert seen["asset_ids"] == {"1": ["SYN001", "ÉTÉ"], "2": ["SYN001", "ÉTÉ"]}
    in_process = (tmp_path / "cpus1.csv").read_bytes()
    assert b",\xc3\x89T\xc3\x89," in in_process  # "ÉTÉ" in UTF-8
    assert (tmp_path / "cpus2.csv").read_bytes() == in_process
