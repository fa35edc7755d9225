"""The fork pool, whose caller is worker 0: it runs its own share of the jobs as it reads."""

import ast
import errno
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import copuladyn
from copuladyn import _pool, ingest, synth
from copuladyn._pool import ordered, processes

BIG = 1 << 20  # bytes in a result: far past a pipe's 64 KiB buffer


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test whose pool is still waiting for a worker after 30 s."""
    def hung(signum, frame):
        pytest.fail("the pool still waits for its workers after 30 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_large_worker_results_arrive_in_order_after_the_callers_job():
    def work(n):
        if os.getpid() == caller:
            ran_here.append(n)
            time.sleep(0.1)  # meanwhile the worker blocks on its full pipe
        return bytes([n]) * BIG

    caller, ran_here = os.getpid(), []
    with ordered(work, [0, 1, 2, 3], 2) as results:
        got = list(results)
    assert got == [bytes([n]) * BIG for n in range(4)]
    assert ran_here == [0, 2]  # jobs[0::2]; the forked worker ran jobs[1::2]


def test_worker_error_reaches_the_caller_after_its_own_job():
    def work(n):
        if n == 3 and os.getpid() != caller:
            raise ValueError("job 3 failed")
        return n

    caller, done = os.getpid(), []
    with pytest.raises(ValueError, match="job 3 failed"):
        with ordered(work, [0, 1, 2, 3], 2) as results:
            done.extend(results)
    assert done == [0, 1, 2]  # the caller's job 2 ran before the worker's error was read


def test_caller_error_before_any_read_reaps_every_worker():
    started = []
    with pytest.raises(RuntimeError, match="caller failed"):
        with ordered(lambda n: bytes(BIG), [0, 1, 2], 3):
            started.append(True)
            time.sleep(0.1)  # each of the two forked workers now blocks on its full pipe
            raise RuntimeError("caller failed")
    assert started == [True]
    # no_stray_processes (conftest.py) then finds no child process, running or unreaped


def test_failed_fork_closes_its_pipe_and_reaps_the_workers_forked(monkeypatch):
    def fork():
        if len(pipes) == 2:  # EAGAIN, as when the process limit is reached
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    def pipe():
        pipes.append(real_pipe())
        return pipes[-1]

    real_fork, real_pipe, pipes = os.fork, os.pipe, []
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "pipe", pipe)
    caller = os.getpid()
    with ordered(lambda n: (n, os.getpid()), [1, 2, 3], 3) as results:
        assert len(pipes) == 2
        for fd in (fd for pair in pipes for fd in pair):
            with pytest.raises(OSError):
                os.fstat(fd)
        # no job needs a worker: every one runs in this process
        assert list(results) == [(1, caller), (2, caller), (3, caller)]
    # no_stray_processes (conftest.py) then finds the first worker reaped


def test_caller_that_leaves_early_ends_the_workers():
    def work(n):
        if os.getpid() != caller:
            time.sleep(60)  # past the deadline, unless the worker is ended
        return n

    caller = os.getpid()
    with ordered(work, [0, 1], 2) as results:
        assert next(results) == 0  # the caller's own job, then it leaves before the worker's
    # no_stray_processes (conftest.py) then finds no child process, running or unreaped


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_processes_from_the_gate_on_are_one_per_cpu_and_job(monkeypatch, cpus):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
    assert processes(99, 100) == processes(99, 100, 5) == 1  # below the gate: this process
    for size in (100, 10**9):
        assert processes(size, 100) == cpus
        assert [processes(size, 100, n_jobs) for n_jobs in (1, 2, 5)] == [
            min(cpus, n_jobs) for n_jobs in (1, 2, 5)]


@pytest.mark.parametrize("reason", ["another thread runs", "no os.fork"])
def test_processes_stay_one_when_it_cannot_fork(monkeypatch, reason):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 4)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    if reason == "another thread runs":
        other.start()
    else:
        monkeypatch.delattr(os, "fork")
    try:
        assert processes(100, 0) == processes(100, 0, 8) == 1
    finally:
        release.set()
        if other.ident is not None:
            other.join(10)
    assert not other.is_alive()
    assert processes(100, 0, 8) == (1 if reason == "no os.fork" else 4)


def test_benchmark_inputs_keep_their_process_counts_on_2_cpus(monkeypatch):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    # the seed-1 ticks-async tape (7,826,871 bytes) is cut into 2 byte ranges; the
    # wide-diff and dynamics-windows inputs (1,828,990 and 2,200,182 bytes) are one
    assert [processes(size, ingest._PARALLEL_MIN_BYTES)
            for size in (7_826_871, 1_828_990, 2_200_182)] == [2, 1, 1]
    # synth-write's 700,000 rows in 500 sessions take 2 processes; the 42,000 and 50,400
    # rows of the factor panels that perfbench writes in its own process stay there
    assert [processes(rows, synth._PARALLEL_MIN_ROWS, sessions)
            for rows, sessions in ((700_000, 500), (42_000, 100), (50_400, 200))] == [2, 1, 1]


def _imported_modules(tree) -> set:
    """The modules that a ``copuladyn`` module's import statements name, relative ones
    resolved, and for ``from X import Y`` both X and X.Y."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["copuladyn" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_the_measured_steps_import_the_pool():
    # each pooled step was measured to pay; a new one edits this set and logs its gate
    package = Path(copuladyn.__file__).parent
    users = {path.stem for path in package.glob("*.py")
             if "copuladyn._pool" in _imported_modules(ast.parse(path.read_text("utf-8")))}
    assert users == {"ingest", "synth"}
