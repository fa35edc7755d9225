"""The fork pool when the caller runs a job of its own before it reads the workers' results."""

import os
import signal
import time

import pytest

from copuladyn._pool import ordered

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
        return bytes([n]) * BIG

    with ordered(work, [1, 2, 3], 2) as results:
        mine = work(0)
        time.sleep(0.1)  # meanwhile each worker blocks on its full pipe
        got = [mine, *results]
    assert got == [bytes([n]) * BIG for n in range(4)]


def test_worker_error_reaches_the_caller_after_its_own_job():
    def work(n):
        if n == 2 and os.getpid() != caller:
            raise ValueError("job 2 failed")
        return n

    caller, done = os.getpid(), []
    with pytest.raises(ValueError, match="job 2 failed"):
        with ordered(work, [1, 2, 3], 2) as results:
            done.append(work(0))
            done.extend(results)
    assert done == [0, 1]


def test_caller_error_before_any_read_reaps_every_worker():
    started = []
    with pytest.raises(RuntimeError, match="caller failed"):
        with ordered(lambda n: bytes(BIG), [1, 2], 2):
            started.append(True)
            time.sleep(0.1)  # each worker now blocks on its full pipe
            raise RuntimeError("caller failed")
    assert started == [True]
    # no_stray_processes (conftest.py) then finds no child process, running or unreaped
