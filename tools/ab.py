"""A/B the benchmark between two source trees in alternating pairs.

Usage: python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload NAME|all --pairs N --seconds S

Each pair runs ``perfbench/run.py --trace 0`` once in each tree, each tree with
its own ``perfbench/``. Pairs alternate which tree runs first, and every two
pairs switch the seed between 1 and 7. Every ``__pycache__`` in both trees is
deleted before the first pair, and the runs write no bytecode, so neither tree
starts from stale or fresher caches. Prints one row per pair, then for each
end-to-end metric both trees' medians, the parent's quartiles and in how many
pairs the change read lower.
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


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        print(f"ab: {tree} seed {seed}: {result['failed']}/{result['attempted']} runs failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


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

    pairs = []
    for k in range(opts.pairs):
        seed = SEEDS[k // 2 % 2]
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {side: bench(trees[side], opts.workload, seed, opts.seconds) for side in order}
        pairs.append(pair)
        cells = "  ".join(f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
                          for name in pair["parent"])
        print(f"pair {k + 1} seed {seed} {order[0]} first: {cells}", flush=True)

    for name in pairs[0]["parent"]:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        lower = sum(c < p for p, c in zip(parent, change))
        print(f"{name}: parent median {statistics.median(parent):.4g} (quartiles {q1:.4g}-"
              f"{q3:.4g}), change median {statistics.median(change):.4g}, "
              f"change lower {lower}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
