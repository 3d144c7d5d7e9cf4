"""Smoke test: every walkthrough in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["route_quickstart", "compare_builders", "hard_instances", "scaling_sweep"]
)
def test_walkthrough_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
