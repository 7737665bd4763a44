"""Shared helper for the acceptance-benchmark record files.

The acceptance benchmarks (``bench_experiment_engine.py``,
``bench_failure_sweep.py``, ...) each append a payload under their own
key to a ``BENCH_PR<n>.json`` record at the
repository root; CI uploads the records as artifacts.  This module keeps
the merge logic in one place so record handling cannot drift between
benchmarks: existing keys written by other benchmarks are preserved, and a
corrupt record file is replaced rather than crashing the run.

Every merge also (re)stamps a shared ``meta`` block — git SHA, python and
numpy versions, CPU count, UTC timestamp — so the records are comparable
across machines and checkouts without guessing where they came from.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

__all__ = ["REPO_ROOT", "merge_record", "record_meta"]


def _git_sha() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def record_meta() -> dict:
    """The environment block stamped into every record file."""
    return {
        "git_sha": _git_sha(),
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "recorded_at_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def merge_record(record_path: Path, key: str, payload: dict) -> None:
    """Insert ``payload`` under ``key`` in ``record_path``, keeping other keys.

    The shared ``meta`` block is refreshed on every merge (last benchmark
    to write wins — the whole record comes from one machine and one
    checkout per CI run, so one block describes every key).
    """
    record = {}
    if record_path.exists():
        try:
            record = json.loads(record_path.read_text())
        except json.JSONDecodeError:
            record = {}
    record[key] = payload
    record["meta"] = record_meta()
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
