"""Shared helper for the acceptance-benchmark record files.

The acceptance benchmarks (``bench_experiment_engine.py``,
``bench_failure_sweep.py``, ...) each append a payload under their own
key to a ``BENCH_PR<n>.json`` record at the
repository root; CI uploads the records as artifacts.  This module keeps
the merge logic in one place so record handling cannot drift between
benchmarks: existing keys written by other benchmarks are preserved, and a
corrupt record file is replaced rather than crashing the run.

Every merge also (re)stamps a shared ``meta`` block — git SHA, whether
the working tree differed from it, python and numpy versions, CPU count,
UTC timestamp — so the records are comparable across machines and
checkouts without guessing where they came from.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

__all__ = ["REPO_ROOT", "merge_record", "record_meta"]


def _git(*args: str) -> Optional[str]:
    """The output of ``git <args>`` in the repository, ``None`` when git fails."""
    try:
        return subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def record_meta() -> dict:
    """The environment block stamped into every record file.

    ``git_dirty`` says whether tracked files differed from ``git_sha``
    when the record was written (``"unknown"`` when git fails), since a
    record re-run before its commit measures a tree that hash does not
    name.
    """
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": (sha or "").strip() or "unknown",
        "git_dirty": "unknown" if status is None else bool(status.strip()),
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
