"""The demos run to completion as scripts.

Demo 03 is left out: its closed loop steps one state at a time and takes
about 10 s.
"""

import os
import subprocess
import sys

import pytest

import symquant as sq

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


@pytest.mark.parametrize("name", ["01_quantizer_tour.py",
                                  "02_build_and_verify.py",
                                  "04_maneuver_planning.py"])
def test_demo_runs(name):
    src = os.path.dirname(os.path.dirname(sq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
