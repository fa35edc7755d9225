"""Forked worker processes that hand back results in job order, pickled into one pipe each."""

import os
import pickle
import signal
import threading
from contextlib import contextmanager
from itertools import cycle, islice


def usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def worker_count(size: int, n_jobs: int, min_size: int, cpus: int) -> int:
    """Workers for ``n_jobs`` jobs on ``cpus`` CPUs; 0 to run them in this process, as for
    an input whose ``size`` (rows, bytes: the unit of ``min_size``) is below ``min_size``.
    A fork could copy a lock that another thread holds, so none may run."""
    workers = min(cpus, n_jobs)
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    return workers if can_fork and size >= min_size and workers > 1 else 0


@contextmanager
def ordered(work, jobs, workers: int):
    """Yield an iterator over ``work(job)`` (picklable, not an exception) for each job of the
    sequence ``jobs``, in order, from ``workers`` forked processes (this one if 0). Worker w
    runs ``jobs[w::workers]``, blocking while its pipe is full: at most its pipe's buffer
    plus one job ahead of the reader. A worker's exception is raised from the iterator. When
    the block exits, whether or not it read every result, each worker is killed and reaped."""
    readers, pids = [], []
    try:
        for w in range(workers):
            fd_in, fd_out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # EAGAIN or ENOMEM: this iteration's pipe has no worker
                os.close(fd_in)
                os.close(fd_out)
                raise
            if pid == 0:
                _serve(work, jobs[w::workers], fd_out, [fd_in, *(r.fileno() for r in readers)])
            pids.append(pid)
            os.close(fd_out)
            readers.append(open(fd_in, "rb"))
        yield map(_receive, islice(cycle(readers), len(jobs))) if workers else map(work, jobs)
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:  # an unreaped child keeps its pid, so the kill cannot hit another
            os.kill(pid, signal.SIGKILL)
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
