"""No CLI command loads scipy, not even the ones with a Gaussian step.

Runs in a fresh interpreter: this test process has scipy loaded already,
through ``tests/oracles.py`` among others. ``numpy.ma`` (which a plain
``np.unique`` imports) is watched too: neither importing the CLI nor running
any command may load it. Nor may importing the package or the CLI, or any
command here, load ``multiprocessing`` or ``concurrent.futures``. That covers
a ``synth`` run that takes ``write_price_csv``'s worker pool (no minimum size,
2 CPUs forced), a ``taildep`` run whose ``load_prices`` parses its input in
2 byte ranges, one in a forked worker (no minimum size, 2 CPUs forced), and a
``dynamics`` run that does the same: the pools fork their workers with ``os.fork``
alone.
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
from copuladyn import _pool, synth

workers = []


def processes(*args):
    workers.append(_pool.processes(*args))
    return workers[-1]


synth.processes = processes
prices = str(out / "data" / "prices.csv")
runs = [
    ("synth", ["synth", "--assets", "3", "--length", "40", "--seed", "3",
               "--out", str(out / "data")]),
    # 6,462 rows in 154 sessions
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
        _pool.usable_cpus = lambda: 2
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
    expected["workers"] = [1, 2]
    for step in steps:
        expected[f"{step} loads multiprocessing"] = False
        expected[f"{step} loads concurrent.futures"] = False
        if step != "import copuladyn":
            expected[f"{step} loads numpy.ma"] = False
    assert seen == expected


POOLED_INGEST_SCRIPT = """
import json, sys
from pathlib import Path

out = Path(sys.argv[1])
from copuladyn import _pool, ingest
from copuladyn.cli import main

if main(["synth", "--assets", "3", "--length", "400", "--seed", "3", "--out", str(out / "data")]):
    raise SystemExit("synth failed")
ranges = []
real_parse = ingest._parse_prices


def processes(*args):
    ranges.append(_pool.processes(*args))
    return ranges[-1]


def parse_prices(*args, **kwargs):
    ranges.append("whole file")
    return real_parse(*args, **kwargs)


ingest.processes, ingest._parse_prices = processes, parse_prices
ingest._PARALLEL_MIN_BYTES = 0
_pool.usable_cpus = lambda: 2
if main(["taildep", "--input", str(out / "data" / "prices.csv"), "--grid", "4",
         "--out", str(out / "t")]):
    raise SystemExit("taildep failed")
if main(["dynamics", "--input", str(out / "data" / "prices.csv"), "--grid", "4",
         "--window-days", "2", "--out", str(out / "w")]):
    raise SystemExit("dynamics failed")
print(json.dumps({"ranges": ranges, "loaded": sorted(
    m for m in ("scipy", "numpy.ma", "multiprocessing", "concurrent.futures")
    if m in sys.modules)}))
"""


def test_ingest_in_byte_ranges_loads_no_pool_module(tmp_path):
    proc = subprocess.run([sys.executable, "-c", POOLED_INGEST_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # two ranges per load, all accepted: the file was never read as one stream
    assert json.loads(proc.stdout) == {"ranges": [2, 2], "loaded": []}
