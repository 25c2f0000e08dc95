"""The simulation import path loads no numpy.

The simulator runs on plain Python ints and lists; numpy is needed only by
the offline Hurst estimators in :mod:`repro.traffic.selfsim`. Every campaign
process (the parent and each forked pool worker) imports the package, the
CLI and the harness, so an eager numpy import anywhere on that path costs
its import time and resident memory once per process.

The check runs in a fresh interpreter because other tests (``test_selfsim``)
load numpy into the pytest process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

import repro
import repro.cli
import repro.harness.backends
import repro.harness.experiments
from repro.harness.runner import build_simulator
from repro.harness.scales import SMOKE_SCALE

build_simulator(SMOKE_SCALE.simulation(0.3)).run()
loaded = sorted(name for name in sys.modules if name == "numpy" or name.startswith("numpy."))
assert not loaded, f"numpy loaded on the simulation path: {loaded[:5]}"
"""


def test_simulation_path_does_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
