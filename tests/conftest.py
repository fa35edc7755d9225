import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import copuladyn  # noqa: E402

# CLI tests run `python -m copuladyn` in subprocesses; they must import the
# same package as this process, which pytest's `pythonpath` setting alone does
# not pass on to children.
_PACKAGE_ROOT = str(Path(copuladyn.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_PACKAGE_ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                       if p and p != _PACKAGE_ROOT]
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process of this one running."""
    yield
    assert not multiprocessing.active_children()
