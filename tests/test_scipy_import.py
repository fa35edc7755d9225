"""No CLI command loads scipy, not even the ones with a Gaussian step.

Runs in a fresh interpreter: this test process has scipy loaded already,
through ``tests/oracles.py`` among others. ``numpy.ma`` (which a plain
``np.unique`` imports) is watched too: neither importing the CLI nor running
any command may load it. Nor may importing the package or the CLI, or any
command here, load ``multiprocessing`` or ``concurrent.futures``. That covers
a ``synth`` run that takes ``write_price_csv``'s worker pool (no minimum size,
2 CPUs forced), since the pool forks its workers with ``os.fork`` alone.
"""

import json
import subprocess
import sys

SCRIPT = """
import json, sys
from pathlib import Path

out = Path(sys.argv[1])
seen = {}
POOL_MODULES = ("multiprocessing", "concurrent.futures")


def note(step):
    seen[step] = "scipy" in sys.modules
    for module in POOL_MODULES:
        seen[f"{step} loads {module}"] = module in sys.modules


import copuladyn
note("import copuladyn")
from copuladyn.cli import main
note("import copuladyn.cli")
seen["import copuladyn.cli loads numpy.ma"] = "numpy.ma" in sys.modules
from copuladyn import synth

workers = []
real_count = synth._worker_count


def worker_count(rows, n_chunks):
    workers.append(real_count(rows, n_chunks))
    return workers[-1]


synth._worker_count = worker_count
prices = str(out / "data" / "prices.csv")
runs = [
    ("synth", ["synth", "--assets", "3", "--length", "40", "--seed", "3",
               "--out", str(out / "data")]),
    # 6,468 rows: two chunks
    ("synth in 2 workers", ["synth", "--assets", "3", "--length", "2000", "--seed", "3",
                            "--out", str(out / "pooled")]),
    ("copula", ["copula", "--input", prices, "--grid", "4", "--permille", "--out", str(out / "c")]),
    ("taildep", ["taildep", "--input", prices, "--grid", "4", "--out", str(out / "t")]),
    ("diff", ["diff", "--input", prices, "--grid", "4", "--out", str(out / "d")]),
    ("dynamics", ["dynamics", "--input", prices, "--grid", "4", "--window-days", "2",
                  "--out", str(out / "w")]),
]
for name, argv in runs:
    if name == "synth in 2 workers":
        synth._PARALLEL_MIN_ROWS = 0
        synth._usable_cpus = lambda: 2
    if main(argv) != 0:
        raise SystemExit(f"{name} failed")
    note(name)
    seen[name + " loads numpy.ma"] = "numpy.ma" in sys.modules
seen["workers"] = workers
print(json.dumps(seen))
"""


def test_no_command_loads_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    steps = ["import copuladyn", "import copuladyn.cli", "synth", "synth in 2 workers", "copula",
             "taildep", "diff", "dynamics"]
    expected = {step: False for step in steps}
    expected["workers"] = [0, 2]
    for step in steps:
        expected[f"{step} loads multiprocessing"] = False
        expected[f"{step} loads concurrent.futures"] = False
        if step != "import copuladyn":
            expected[f"{step} loads numpy.ma"] = False
    assert seen == expected
