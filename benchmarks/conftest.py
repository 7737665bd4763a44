"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates the data behind one figure or table of the
paper on the synthetic Europe-like and America-like scenarios.  The
scenarios are expensive to build (routing + a full day of five-minute
snapshots), so they are session-scoped; the numeric series produced by each
benchmark are written to ``benchmarks/results/<name>.json`` so that
EXPERIMENTS.md can be regenerated from a benchmark run.

Benchmarks use ``benchmark.pedantic(..., rounds=1, iterations=1)``: the
quantities of interest are the reproduced numbers (and a single wall-clock
measurement), not statistically tight timings of multi-second experiments.

They run on one BLAS thread, the policy of the ledger and of perfbench: the
variables are set here, before numpy loads.  With the default threads a
small shared host adds thread wake-ups that swamp millisecond solves, and a
single cold timing such as ``bench_series_estimation.py``'s batched
Bayesian call then reads slower than the loop it must beat.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np
import pytest

from repro.datasets import america_scenario, europe_scenario

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def europe():
    """The Europe-like scenario (12 PoPs, 132 demands, 72 links)."""
    return europe_scenario()


@pytest.fixture(scope="session")
def america():
    """The America-like scenario (25 PoPs, 600 demands, 284 links)."""
    return america_scenario()


def _to_jsonable(value: Any) -> Any:
    """Convert numpy containers to plain Python for JSON serialisation."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    return value


def save_result(name: str, data: Any) -> None:
    """Persist one benchmark's data series under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with path.open("w") as handle:
        json.dump(_to_jsonable(data), handle, indent=2)


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing and return its result."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
