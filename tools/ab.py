"""A/B the benchmark between two source trees in alternating pairs.

Usage: python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload NAME|all --pairs N --seconds S

Each pair runs ``perfbench/run.py --trace 0`` once in each tree, each tree with
its own ``perfbench/``. Pairs alternate which tree runs first, and every two
pairs switch the seed between 1 and 7. Every ``__pycache__`` in both trees is
deleted before the first pair, and the runs write no bytecode, so neither tree
starts from stale or fresher caches. Prints one row per pair, then the failed
and attempted runs of each tree, then for each end-to-end metric both trees'
medians, the parent's quartiles, in how many pairs the change read better (a
tie counts for neither tree), and whether a gain claim holds: the change better
in at least 9 pairs in 10, and its median better than the parent's by more than
the parent's interquartile range.

A harness run that prints no result counts as one failed run of its tree, and
its pair is left out of the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 7)


def bench(tree: Path, workload: str, seed: int, seconds: float):
    """(end-to-end metrics or None, failed runs, attempted runs) of one harness run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print(f"ab: {tree} seed {seed}: the harness printed no result (exit {proc.returncode})")
        return None, 1, 1
    if not result["correct"]:
        print(f"ab: {tree} seed {seed}: {result['failed']}/{result['attempted']} runs failed")
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return metrics, result["failed"], result["attempted"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    opts = parser.parse_args()
    if opts.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees = {"parent": opts.parent.resolve(), "change": opts.change.resolve()}
    for tree in trees.values():
        for cache in list(tree.rglob("__pycache__")):
            shutil.rmtree(cache)
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    pairs, failed, attempted = [], dict.fromkeys(trees, 0), dict.fromkeys(trees, 0)
    for k in range(opts.pairs):
        seed = SEEDS[k // 2 % 2]
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side], side_failed, side_attempted = bench(trees[side], opts.workload, seed,
                                                            opts.seconds)
            failed[side] += side_failed
            attempted[side] += side_attempted
        if None in pair.values():
            print(f"pair {k + 1} seed {seed} {order[0]} first: no result", flush=True)
            continue
        pairs.append(pair)
        cells = "  ".join(f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
                          for name in pair["parent"])
        print(f"pair {k + 1} seed {seed} {order[0]} first: {cells}", flush=True)

    for side in trees:
        print(f"{side}: {failed[side]}/{attempted[side]} runs failed")
    if len(pairs) < 2:
        print("ab: fewer than two pairs gave results on both trees; no metrics")
        return 1
    for name in pairs[0]["parent"]:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        # a workload's metric is named "<workload>.<metric>" when the harness runs them all
        sign = 1 if lower_is_better.get(name.rsplit(".", 1)[-1], True) else -1
        q1, _, q3 = statistics.quantiles(parent, n=4)
        better = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        gap = sign * (statistics.median(parent) - statistics.median(change))
        claim = better * 10 >= 9 * len(pairs) and gap > q3 - q1
        print(f"{name}: parent median {statistics.median(parent):.4g} (quartiles {q1:.4g}-"
              f"{q3:.4g}), change median {statistics.median(change):.4g}, "
              f"change better {better}/{len(pairs)}; gain claim "
              f"{'holds' if claim else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
