"""copuladyn benchmark: seeded inputs, real CLI runs, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Generates the workload's input from the seed, then runs the CLI one child
process at a time (a closed loop with one client) for S seconds. Each child
is a fresh interpreter that imports ``copuladyn.cli`` from ``src/`` and calls
``main(argv)``; every run's outputs are checked. Timings are scaled to a
reference host speed: the child times a fixed calibration loop on each of its
CPUs just before and just after the CLI work, and each run's times are
multiplied by ``CALIBRATION_REFERENCE_S`` over the mean of the two
measurements. On a shared host each CPU's speed can drift by 20% or more over
tens of seconds; the scaling cancels most of that. Raw medians are printed
and kept too. With ``--trace 1``, one more run wraps the library's public
functions and gives the per-layer metrics. Prints every metric by name with
its unit and, as the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or per-layer ones with
``--trace 1``), named as in ``BENCHMARK.json``. Inputs and outputs live in
``.perfbench_work/`` in the repository root; the results and the spans of
the traced run stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from child import CALIBRATION_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# native libraries get one thread, so that no child has more busy threads
# than its --threads value
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass
class Sample:
    """One checked CLI run; ``wall_s`` and ``setup_s`` are raw seconds."""

    wall_s: float
    setup_s: float
    scale: float  # reference calibration time over this run's calibration time
    peak_rss_mb: float
    files: dict
    problems: list


def run_cli(workload, cli_args, out_dir, reference=None, spans_file=None) -> Sample:
    """Run one CLI invocation into a fresh ``out_dir`` and check its outputs.

    ``wall_s`` runs from spawn to exit, ``setup_s`` from spawn until the child
    has imported ``copuladyn.cli``, both without the child's calibration
    loops, and ``peak_rss_mb`` is the child's own peak RSS from ``wait4``.
    Outputs must match ``reference`` if given.
    """
    from check import check_run, same_outputs, snapshot

    shutil.rmtree(out_dir, ignore_errors=True)
    report_r, report_w = os.pipe()
    argv = [sys.executable, str(HERE / "child.py"), str(report_w),
            str(spans_file) if spans_file else "-", *cli_args, "--out", str(out_dir)]
    start = time.monotonic()
    proc = subprocess.Popen(argv, env=dict(os.environ, **CHILD_ENV), pass_fds=(report_w,),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    os.close(report_w)
    with proc.stderr, os.fdopen(report_r, "rb") as report_fh:
        stderr = proc.stderr.read()  # EOF once the child has exited
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = report_fh.read().split()
    wall = end - start
    files = snapshot(out_dir) if out_dir.exists() else {}
    problems = check_run(workload, proc.returncode, out_dir, files)
    if reference is not None and not problems:
        problems = same_outputs(reference, files)
    if problems and stderr.strip():
        problems.append("stderr: " + stderr.decode(errors="replace").strip().splitlines()[-1])
    if report:
        ready, spent_before, before, spent_after, after = map(float, report)
        wall -= spent_before + spent_after
        setup = ready - start - spent_before
        scale = CALIBRATION_REFERENCE_S / ((before + after) / 2.0)
    else:
        # a child that never got ready has failed; count its whole run as set-up
        setup, scale = wall, 1.0
    return Sample(wall, setup, scale, usage.ru_maxrss / 1024.0, files, problems)


def tail(values: list):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    return round(100.0 * (n - 10) / n, 1), sorted(values)[n - 11]


def machine(seed: int) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "seed": seed}


def traced_run(workload, cli_args, out_dir, reference, wall_median):
    """One traced CLI run: (per-layer metrics, blocking-path split, sample)."""
    from tracer import blocking_path, layer_metrics, load_spans

    spans_file = WORK / f"spans-{workload.name}.json"
    spans_file.unlink(missing_ok=True)
    sample = run_cli(workload, cli_args, out_dir, reference, spans_file)
    # a child that crashed wrote no spans; its sample already counts as failed
    spans = load_spans(spans_file) if spans_file.exists() else []
    run_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.run")
    layers = layer_metrics(spans)
    layers["cli.files_written"] = len(sample.files)
    layers["cli.bytes_written"] = sum((out_dir / f).stat().st_size for f in sample.files)
    layers["trace.wall_s"] = sample.wall_s
    layers["trace.overhead_s"] = sample.wall_s * sample.scale - wall_median
    layers["trace.unaccounted_s"] = sample.wall_s - sample.setup_s - run_s
    blocking = dict(blocking_path(spans), setup=sample.setup_s,
                    unaccounted=layers["trace.unaccounted_s"])
    return layers, blocking, sample


def run_all(spec, opts) -> int:
    """Run every workload in turn, each in its own driver process, and print a
    summary whose metrics are named ``<workload>.<metric>``."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        argv = [sys.executable, __file__, "--workload", workload["name"], "--seed", str(opts.seed),
                "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
        lines = subprocess.run(argv, stdout=subprocess.PIPE, text=True).stdout.splitlines()
        if not lines:
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload['name']}.{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not (SRC / "copuladyn" / "cli.py").is_file():
        print(f"perfbench: no copuladyn sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if opts.workload == "all":
        return run_all(spec, opts)
    sys.path.insert(0, str(SRC))
    import workloads

    # children inherit this: they run on as many CPUs as they have threads,
    # and each run's speed measurement covers exactly those CPUs
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:workloads.THREADS])
    from check import same_outputs

    if opts.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {opts.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[opts.workload]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = work / "out"

    cli_args, input_info = workloads.prepare(wl, opts.seed, work)
    # fills the page and bytecode caches, which users also have warm; not timed
    subprocess.run([sys.executable, "-c", "import copuladyn.cli"],
                   env=dict(os.environ, **CHILD_ENV), check=True)

    samples = []
    start = time.monotonic()
    while time.monotonic() - start < opts.seconds:
        samples.append(run_cli(wl, cli_args, out_dir, samples[0].files if samples else None))
    reference = samples[0].files
    checks = []
    if wl.command == "dynamics":
        # argparse keeps the last --threads; the manifest records it, so skip that file
        sample = run_cli(wl, cli_args + ["--threads", "1"], out_dir)
        sample.problems += same_outputs(reference, sample.files, ignore=("manifest.json",))
        checks.append(sample)

    walls = [s.wall_s * s.scale for s in samples]
    setups = [s.setup_s * s.scale for s in samples]
    rss = [s.peak_rss_mb for s in samples]
    wall_median = statistics.median(walls)
    raw = {"wall_s": statistics.median(s.wall_s for s in samples),
           "setup_s": statistics.median(s.setup_s for s in samples),
           "host_scale": statistics.median(s.scale for s in samples)}
    end_to_end = {
        "wall_s": wall_median,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "rows_per_s": wl.rows / wall_median,
    }
    tails = {"wall_s": tail(walls), "setup_s": tail(setups), "peak_rss_mb": tail(rss)}
    if tails["wall_s"]:
        pct, slowest = tails["wall_s"]
        tails["rows_per_s"] = (round(100.0 - pct, 1), wl.rows / slowest)

    layers, blocking, traced = {}, {}, []
    if opts.trace:
        layers, blocking, sample = traced_run(wl, cli_args, out_dir, reference, wall_median)
        traced.append(sample)

    everything = samples + checks + traced
    failed = sum(1 for s in everything if s.problems)
    for s in everything:
        for problem in s.problems:
            print(f"perfbench: {wl.name} run failed: {problem}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
    host = machine(opts.seed)
    print(f"workload {wl.name}: {why}")
    print(f"  command: copuladyn {' '.join(cli_args)} --out DIR")
    print(f"  input: {json.dumps(input_info, sort_keys=True)}")
    print(f"  machine: {json.dumps(host, sort_keys=True)}")
    print(f"  runs: {len(samples)} timed, {len(checks)} check, {len(traced)} traced")
    print(f"  raw (unscaled) medians: wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s;"
          f" median host scale {raw['host_scale']:.4g}")
    for name, value in end_to_end.items():
        t = tails.get(name)
        t_text = f"p{t[0]} {t[1]:.6g}" if t else "no tail percentile (n < 11)"
        print(f"  {name:<28} median {value:.6g} {units[name]}; {t_text}; n={len(samples)}")
    print(f"  {'fail_rate':<28} {failed}/{len(everything)} = {failed / len(everything):.3g}")
    for name, value in layers.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    if blocking:
        wall = layers["trace.wall_s"]
        parts = ", ".join(f"{k} {v:.3f} s ({v / wall:.0%})" for k, v in blocking.items())
        print(f"  traced wall {wall:.3f} s = {parts}")

    (WORK / f"results-{wl.name}-seed{opts.seed}-trace{opts.trace}.json").write_text(json.dumps({
        "workload": wl.name, "cli_args": cli_args, "input": input_info,
        "machine": host, "end_to_end": end_to_end, "tails": tails, "raw_medians": raw,
        "per_layer": layers, "blocking_path": blocking,
        "runs": [{"wall_s": s.wall_s, "setup_s": s.setup_s, "scale": s.scale,
                  "peak_rss_mb": s.peak_rss_mb, "problems": s.problems} for s in everything],
    }, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    chosen = spec["per_layer"] if opts.trace else spec["end_to_end"]
    values = layers if opts.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
