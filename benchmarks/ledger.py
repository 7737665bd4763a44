"""The benchmark ledger: one runner writing one record file, ``BENCH.json``.

Run from the root of a checkout::

    python benchmarks/ledger.py <tier>

``<tier>`` is one of ``experiment-engine``, ``failure-sweep``,
``large-scale``, ``telemetry`` and ``streaming``; each names the module in
this directory whose ``measure()`` runs it (see :data:`TIERS`).  The runner
pins OpenBLAS, OpenMP and MKL to one thread before numpy loads, as
``perfbench/run.py`` does, runs ``measure()`` and writes the tier's entry
into ``BENCH.json`` at the repository root, keeping the other tiers'
entries (a ledger that does not parse is replaced).  Every entry has four
keys:

* ``meta``: the git sha it was measured at, ``git_dirty`` (whether tracked
  files other than the ledger differed from that sha), python and numpy versions, platform, CPU
  count, ``blas_threads`` and the UTC time.  Each entry carries its own,
  since tiers are recorded at different times and a shared block would
  name the wrong commit for all but the last;
* ``inputs``: what the tier ran on (scenario, sizes, seeds, bounds);
* ``metrics``: ``{name: {"value": float, "unit": str}}``, the result-line
  shape of ``perfbench/run.py``;
* ``checks``: ``{name: bool}``.

``measure()`` returns ``(inputs, metrics, checks)`` with each metric given
as a ``(value, unit)`` pair.  The runner prints every metric and check, and
exits 1 when any check is false, after the entry is written.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent
SRC = REPO_ROOT / "src"
LEDGER_PATH = REPO_ROOT / "BENCH.json"
#: The ledger and the telemetry tier's trace: rewriting them is not a change
#: to the measured tree.
LEDGER_EXCLUDES = (":(exclude)BENCH.json", ":(exclude)BENCH_TRACE.json")

#: One BLAS thread, the policy perfbench measures under: on small shared
#: hosts the default threads add wake-ups that swamp millisecond solves.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Tier name -> the module in this directory whose ``measure()`` runs it.
TIERS = {
    "experiment-engine": "bench_experiment_engine",
    "failure-sweep": "bench_failure_sweep",
    "large-scale": "bench_large_scale",
    "telemetry": "bench_telemetry",
    "streaming": "bench_streaming",
}


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


def entry_meta() -> dict:
    """The environment block stamped into each entry.

    ``git_dirty`` says whether tracked files other than the ledger and
    its trace differed from ``git_sha`` when the entry was written
    (``"unknown"`` when git fails), since an entry recorded before its
    commit measures a tree that sha does not name.
    """
    import numpy as np

    sha = _git("rev-parse", "HEAD")
    status = _git(
        "status", "--porcelain", "--untracked-files=no", "--", ".", *LEDGER_EXCLUDES
    )
    return {
        "git_sha": (sha or "").strip() or "unknown",
        "git_dirty": "unknown" if status is None else bool(status.strip()),
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "recorded_at_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def write_entry(path: Path, tier: str, entry: dict) -> None:
    """Put ``entry`` under ``tier`` in the ledger at ``path``, keeping the other tiers."""
    ledger = {}
    if path.exists():
        try:
            ledger = json.loads(path.read_text())
        except json.JSONDecodeError:
            ledger = {}
    ledger[tier] = entry
    path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")


def run_tier(tier: str) -> dict:
    """Run one tier's ``measure()`` and shape its ledger entry."""
    inputs, metrics, checks = importlib.import_module(TIERS[tier]).measure()
    return {
        "meta": entry_meta(),
        "inputs": inputs,
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
        "checks": {name: bool(passed) for name, passed in checks.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tier", choices=tuple(TIERS))
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    entry = run_tier(args.tier)
    write_entry(LEDGER_PATH, args.tier, entry)
    print(f"{args.tier} (written to {LEDGER_PATH.name}):")
    for name, metric in entry["metrics"].items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    for name, passed in entry["checks"].items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")
    return 0 if all(entry["checks"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
