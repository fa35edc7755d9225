"""End-to-end command-line walkthrough.

Generates a synthetic price file, then runs every analysis subcommand against
it and prints the first lines of each output. Everything lands under
./demo_cli_output; runs are byte-deterministic for a fixed seed.
"""

import json
import pathlib
import subprocess
import sys

OUT = pathlib.Path("demo_cli_output")
OUT.mkdir(exist_ok=True)


def run(*args):
    cmd = [sys.executable, "-m", "copuladyn", *args]
    print("$", " ".join(cmd[2:]))
    subprocess.run(cmd, check=True)


def head(path, n=4):
    lines = pathlib.Path(path).read_text().splitlines()
    for line in lines[:n]:
        print("   ", line)
    print(f"    ... ({len(lines)} lines total)\n")


run("synth", "--kind", "gaussian", "--corr", "0.5", "--assets", "4",
    "--length", "520", "--seed", "11", "--out", str(OUT / "data"))
prices = OUT / "data" / "prices.csv"
head(prices)

run("copula", "--input", str(prices), "--dt", "30", "--grid", "10",
    "--out", str(OUT / "copula"))
head(OUT / "copula" / "grid.csv")

run("diff", "--input", str(prices), "--dt", "30", "--grid", "10",
    "--out", str(OUT / "diff"))
head(OUT / "diff" / "difference.csv")

run("taildep", "--input", str(prices), "--dt", "30", "--grid", "20",
    "--alpha", "0.05", "--alpha", "0.1", "--alpha", "0.25",
    "--out", str(OUT / "taildep"))
head(OUT / "taildep" / "tail_curve.csv", n=5)

run("dynamics", "--input", str(prices), "--dt", "30", "--grid", "10",
    "--window-days", "10", "--out", str(OUT / "dynamics"))
head(OUT / "dynamics" / "relation.csv", n=6)
windows = sorted((OUT / "dynamics" / "windows").iterdir())
print(f"per-window grids: {len(windows)} files, first is {windows[0].name}\n")

# every run directory carries a manifest with input digests and parameters
manifest = json.loads((OUT / "copula" / "manifest.json").read_text())
print("copula manifest keys:", sorted(manifest))
digest = manifest["inputs"][str(prices)]
print("recorded sha256 of the price file:", digest[:16], "...")
