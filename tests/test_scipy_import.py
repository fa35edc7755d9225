"""No CLI command loads scipy, not even the ones with a Gaussian step.

Runs in a fresh interpreter: this test process has scipy loaded already,
through ``tests/oracles.py`` among others. ``numpy.ma`` (which a plain
``np.unique`` imports) is watched too: neither importing the CLI nor running
any command may load it.
"""

import json
import subprocess
import sys

SCRIPT = """
import json, sys
from pathlib import Path

out = Path(sys.argv[1])
seen = {}
import copuladyn
seen["import copuladyn"] = "scipy" in sys.modules
from copuladyn.cli import main
seen["import copuladyn.cli"] = "scipy" in sys.modules
seen["import copuladyn.cli loads numpy.ma"] = "numpy.ma" in sys.modules
prices = str(out / "data" / "prices.csv")
runs = [
    ("synth", ["synth", "--assets", "3", "--length", "40", "--seed", "3",
               "--out", str(out / "data")]),
    ("copula", ["copula", "--input", prices, "--grid", "4", "--permille", "--out", str(out / "c")]),
    ("taildep", ["taildep", "--input", prices, "--grid", "4", "--out", str(out / "t")]),
    ("diff", ["diff", "--input", prices, "--grid", "4", "--out", str(out / "d")]),
    ("dynamics", ["dynamics", "--input", prices, "--grid", "4", "--window-days", "2",
                  "--out", str(out / "w")]),
]
for name, argv in runs:
    if main(argv) != 0:
        raise SystemExit(f"{name} failed")
    seen[name] = "scipy" in sys.modules
    seen[name + " loads numpy.ma"] = "numpy.ma" in sys.modules
print(json.dumps(seen))
"""


def test_no_command_loads_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen == {
        "import copuladyn": False,
        "import copuladyn.cli": False,
        "import copuladyn.cli loads numpy.ma": False,
        "synth": False,
        "synth loads numpy.ma": False,
        "copula": False,
        "copula loads numpy.ma": False,
        "taildep": False,
        "taildep loads numpy.ma": False,
        "diff": False,
        "diff loads numpy.ma": False,
        "dynamics": False,
        "dynamics loads numpy.ma": False,
    }
