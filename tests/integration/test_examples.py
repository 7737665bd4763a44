"""The example scripts run end to end.

Each example is a small program against the public API; running it in a
subprocess (from a temporary working directory) catches an API change that
breaks a script no other test imports.  The streaming drill and the trace
example have their own tests with stronger checks.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "measurement_pipeline.py",
        "traffic_engineering.py",
        "failure_planning.py",
        "noise_robustness.py",
    ],
)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    result = subprocess.run(
        [sys.executable, os.path.join(REPO, "examples", script)],
        env=env,
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
