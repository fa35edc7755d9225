import multiprocessing
import os
import stat
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import copuladyn  # noqa: E402
from copuladyn import _pool  # noqa: E402

# CLI tests run `python -m copuladyn` in subprocesses; they must import the
# same package as this process, which pytest's `pythonpath` setting alone does
# not pass on to children.
_PACKAGE_ROOT = str(Path(copuladyn.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_PACKAGE_ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                       if p and p != _PACKAGE_ROOT]
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# each pooled module's gate: the input size from which ``_pool.processes`` may grant it more
# than this process
GATES = {"copuladyn.ingest": "_PARALLEL_MIN_BYTES", "copuladyn.synth": "_PARALLEL_MIN_ROWS"}


def use_pool(mp, module, cpus):
    """Let ``module``'s pooled step see ``cpus`` usable CPUs and no minimum size, patched
    through ``mp``. Returns the list that collects the process count that each of its calls
    of ``_pool.processes`` gets, 1 for a step run in this process alone."""
    def processes(*args):
        counts.append(_pool.processes(*args))
        return counts[-1]

    counts = []
    mp.setattr(_pool, "usable_cpus", lambda: cpus)
    mp.setattr(module, GATES[module.__name__], 0)
    mp.setattr(module, "processes", processes)
    return counts


@pytest.fixture
def pool(monkeypatch):
    """``pool(module, cpus)``: ``use_pool`` for the rest of the test."""
    return partial(use_pool, monkeypatch)


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process of this one, running or unreaped.

    ``multiprocessing.active_children`` lists only the children that ``multiprocessing``
    started; ``os.waitid`` sees every child, those of a bare ``os.fork`` included.
    """
    yield
    assert not multiprocessing.active_children()
    if hasattr(os, "waitid"):
        try:
            left = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        except ChildProcessError:  # no child at all
            return
        pytest.fail("a child process was left " + (
            "running" if left is None else f"unreaped: pid {left.si_pid}"))


def _open_pipes():
    """(fd, inode) of each FIFO this process holds open, by ``/proc/self/fd``."""
    pipes = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            info = os.stat(f"/proc/self/fd/{name}")
        except OSError:  # the fd that listed the directory, closed since
            continue
        if stat.S_ISFIFO(info.st_mode):
            pipes.add((name, info.st_ino))
    return pipes


@pytest.fixture(autouse=True)
def no_leaked_pipes():
    """Fail a test that leaves a pipe open; no check where ``/proc/self/fd`` does not exist."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = _open_pipes()
    yield
    left = _open_pipes() - before
    assert not left, f"pipes left open (fd, inode): {sorted(left)}"
