"""Smoke tests: the demo scripts and README's library example run to completion.

Each demo runs as its own process against the package in ``src/`` and must
exit 0. Demo 04 (candidate-set comparison, about 20 s) is left out to keep
the suite fast; the other four take a few seconds together. The ``python``
block of README's library tour runs the same way.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_rotations_and_correlators.py", "02_bell_polynomial_zoo.py",
         "03_pauli_frames_monte_carlo.py", "05_shared_axis_sweep.py"]


def run_script(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = run_script([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    proc = run_script(["-c", blocks[0]])
    assert proc.returncode == 0, proc.stderr
