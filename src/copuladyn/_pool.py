"""Forked worker processes that hand back results in job order, pickled into one pipe each;
the calling process is worker 0 and runs its own share of the jobs."""

import os
import pickle
import signal
import threading
from contextlib import contextmanager


def usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def worker_count(size: int, n_jobs: int, min_size: int, cpus: int) -> int:
    """Workers for ``n_jobs`` jobs on ``cpus`` CPUs, this process included; 0 to run them
    all in this process, as for an input whose ``size`` (rows or bytes: the unit of
    ``min_size``) is below ``min_size``. A fork could copy a lock that another thread
    holds, so none may run."""
    workers = min(cpus, n_jobs)
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    return workers if can_fork and size >= min_size and workers > 1 else 0


@contextmanager
def ordered(work, jobs, workers: int):
    """Yield an iterator over ``work(job)`` (picklable, not an exception) for each job of the
    sequence ``jobs``, in order. With ``workers`` of 2 or more, this process is worker 0: it
    forks ``workers - 1`` processes, worker w running ``jobs[w::workers]``, and runs
    ``jobs[0::workers]`` itself as the iterator reaches them. A forked worker blocks while
    its pipe is full: at most its pipe's buffer plus one job ahead of the reader. A worker's
    exception is raised from the iterator. If a fork fails, the workers already forked are
    ended and every job runs in this process. When the block exits, whether or not it read
    every result, each worker is killed and reaped."""
    readers, pids = [], []
    try:
        for w in range(1, workers):
            fd_in, fd_out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # EAGAIN or ENOMEM: no job needs a worker, so run them all here
                os.close(fd_in)
                os.close(fd_out)
                _end(readers, pids)
                break
            if pid == 0:
                _serve(work, jobs[w::workers], fd_out, [fd_in, *(r.fileno() for r in readers)])
            pids.append(pid)
            os.close(fd_out)
            readers.append(open(fd_in, "rb"))
        n = len(readers) + 1  # this process runs every n-th job, from job 0 on
        yield (work(job) if i % n == 0 else _receive(readers[i % n - 1])
               for i, job in enumerate(jobs))
    finally:
        _end(readers, pids)


def _end(readers: list, pids: list) -> None:
    """Close the pipes, then kill and reap each worker, and empty both lists."""
    for reader in readers:
        reader.close()
    for pid in pids:  # an unreaped child keeps its pid, so the kill cannot hit another
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    readers.clear()
    pids.clear()


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
