"""Forked worker processes that hand back results in job order, pickled into one pipe each."""

import os
import pickle
import threading
from contextlib import contextmanager
from itertools import cycle, islice


def usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def worker_count(rows: int, n_jobs: int, min_rows: int, cpus: int) -> int:
    """Workers for ``n_jobs`` jobs of ``rows`` rows on ``cpus`` CPUs; 0 to run them in this
    process. A fork could copy a lock that another thread holds, so none may run."""
    workers = min(cpus, n_jobs)
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    return workers if can_fork and rows >= min_rows and workers > 1 else 0


@contextmanager
def ordered(work, jobs: list, workers: int):
    """Yield an iterator over ``work(job)`` (picklable, not an exception) for each job, in
    order, from ``workers`` forked processes (this one if 0). Worker w runs
    ``jobs[w::workers]``, blocking while its pipe is full: at most about one job ahead of
    the reader. A worker's exception is raised from the iterator; every worker is reaped."""
    readers, pids = [], []
    try:
        for w in range(workers):
            fd_in, fd_out = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(work, jobs[w::workers], fd_out, [fd_in, *(r.fileno() for r in readers)])
            pids.append(pid)
            os.close(fd_out)
            readers.append(open(fd_in, "rb"))
        yield map(_receive, islice(cycle(readers), len(jobs))) if workers else map(work, jobs)
    finally:
        for reader in readers:  # a worker still sending then fails on its broken pipe
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(work, jobs: list, fd: int, read_ends: list) -> None:
    """A worker: close the read ends it inherited, send each result or its error, exit."""
    try:
        for read_end in read_ends:
            os.close(read_end)
        with open(fd, "wb") as out:
            try:
                for job in jobs:
                    pickle.dump(work(job), out)
                    out.flush()
            except BaseException as exc:
                pickle.dump(exc, out)
    finally:
        os._exit(0)


def _receive(reader):
    try:
        data = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):  # at the end of the pipe, or part-way
        raise ChildProcessError("a worker process ended before it sent its result") from None
    if isinstance(data, BaseException):
        raise data
    return data
