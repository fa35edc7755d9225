"""Check that two source trees' CLIs write byte-identical outputs on the benchmark inputs.

Usage: python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Generates each ``BENCHMARK.json`` workload's input once for each of seeds 1 and 7
with the parent tree's ``perfbench/workloads.prepare``. Then runs each tree's
``python -m copuladyn`` (from its ``src``) in a fresh process, with the same argv
and the same ``--out`` directory, and compares the exit codes and the sha256 of
every file written, ``manifest.json`` included. Prints each file that differs or
that only one tree wrote, and exits 1 on any difference. Writes only to a
temporary directory: no bytecode goes into either tree.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7)


def outputs(tree: Path, args: list, out: Path) -> dict:
    """{relative path: sha256} of the files that one CLI run writes under ``out``, and its
    exit code under the key "exit code"."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "copuladyn", *args, "--out", str(out)],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        print(f"same_outputs: {tree}: exit {proc.returncode}: {proc.stderr.strip()}")
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    return {"exit code": proc.returncode,
            **{str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    opts = parser.parse_args()
    parent, change = opts.parent.resolve(), opts.change.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(parent / "src"), str(parent / "perfbench")]
    import workloads  # the parent's, with the parent's copuladyn

    names = [w["name"] for w in json.loads((parent / "BENCHMARK.json").read_text())["workloads"]]
    differing = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        for name in names:
            for seed in SEEDS:
                work = Path(tmp) / f"{name}-{seed}"
                work.mkdir()
                args, _ = workloads.prepare(workloads.WORKLOADS[name], seed, work)
                want = outputs(parent, args, work / "out")
                got = outputs(change, args, work / "out")
                diff = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
                differing += len(diff)
                print(f"{name} seed {seed}: {len(want) - 1} files, "
                      + (f"{len(diff)} differ: {', '.join(diff)}" if diff else "identical"),
                      flush=True)
                shutil.rmtree(work)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
