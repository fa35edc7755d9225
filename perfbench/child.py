"""One CLI run in a fresh interpreter: calibrate, import, call main, calibrate.

Usage: python3 perfbench/child.py REPORT_FD SPANS_FILE|- CLI_ARGS...

Measures the host's speed, imports ``copuladyn.cli``, notes
``time.monotonic()`` (monotonic time is system-wide on Linux, so the parent
can subtract its spawn time), calls ``copuladyn.cli.main`` and measures the
host's speed again. At exit it writes "READY SPENT_BEFORE SPEED_BEFORE
SPENT_AFTER SPEED_AFTER" to file descriptor REPORT_FD, where SPENT is the time
the measurement took and SPEED its result, both in seconds. With a SPANS_FILE
the run is traced and its spans are written there at exit.

The speed measurements run in this process, just before and just after the
CLI work and on the CPUs it runs on, so the parent can scale the run's times
by how fast the shared host happened to be (see ``run.py``).
"""

import math
import os
import sys
import time

# seconds host_speed() takes on the reference host; run.py scales every timing
# to it. The value is near what it takes on a 2-vCPU Xeon VM under Python 3.11.
CALIBRATION_REFERENCE_S = 0.1


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: integer, dict and repr work,
    float math, then strided reads of a list. It allocates about 2 MB, below
    any workload's peak RSS, and imports nothing outside the standard library."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(75_000):
        acc += i * i % 7
        table[i & 1023] = repr(i * 0.5)
    total = 0.0
    for i in range(125_000):
        x = i * 1e-5
        total += math.exp(-x * x) * math.erf(x)
    values = [float(i) for i in range(50_000)]
    for k in range(0, 150_000, 2):
        total += values[(k * 7919) % 50_000]
    return time.perf_counter() - start


def host_speed() -> tuple:
    """(seconds spent, mean of ``calibrate()``) over one unpinned run and one
    pinned to each CPU this process may use. Each CPU of a shared host speeds
    up and slows down on its own, and a CLI run with a thread pool moves
    between them."""
    start = time.perf_counter()
    cpus = os.sched_getaffinity(0)
    times = [calibrate()]
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times.append(calibrate())
    os.sched_setaffinity(0, cpus)
    return time.perf_counter() - start, sum(times) / len(times)


def main() -> int:
    report_fd, spans_file, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    before = host_speed()
    ready = None
    try:
        import copuladyn.cli

        ready = time.monotonic()
        if spans_file == "-":
            return copuladyn.cli.main(argv)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            return copuladyn.cli.main(argv)
        finally:
            tracer.dump(spans_file)
    finally:
        after = host_speed()
        if ready is not None:
            numbers = (ready, *before, *after)
            os.write(report_fd, " ".join(map(repr, numbers)).encode())
        os.close(report_fd)


if __name__ == "__main__":
    sys.exit(main())
