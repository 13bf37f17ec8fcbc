"""Smoke tests: the demo scripts run to completion.

Each demo runs as its own process against the package in ``src/`` and must
exit 0. Demo 04 (candidate-set comparison, about 20 s) is left out to keep
the suite fast; the other four take a few seconds together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_rotations_and_correlators.py", "02_bell_polynomial_zoo.py",
         "03_pauli_frames_monte_carlo.py", "05_shared_axis_sweep.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
