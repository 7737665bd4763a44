"""Acceptance benchmark: the robustness-grid experiment engine.

A robustness grid evaluates every registered estimation method on measured
(noisy) data for each ``(jitter, loss)`` combination.  The engine
(``robustness_sweep(n_jobs=...)``) shares each cell's scenario problems
across methods, runs every method's batched ``estimate_series``, and fans
independent grid cells out over a process pool.

This benchmark times the grid serially, runs it again with ``n_jobs=2`` as
a check, not a speed (on a 2-CPU host the pool costs more than the six
cells it spreads), verifies that the two runs return identical records,
and writes the measurement to ``BENCH_PR3.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_experiment_engine.py
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchrecord import REPO_ROOT, merge_record

RECORD_PATH = REPO_ROOT / "BENCH_PR3.json"

JITTER_VALUES = (0.0, 2.0, 10.0)
LOSS_VALUES = (0.0, 0.02)
METHODS = (
    "gravity",
    "kruithof",
    "bayesian",
    "entropy",
    "tomogravity",
    "vardi",
    "fanout",
    "cao",
    "worst-case-bounds",
)
SEED = 0


def main() -> dict:
    from repro.datasets import europe_scenario
    from repro.evaluation.experiments import robustness_sweep

    num_cells = len(JITTER_VALUES) * len(LOSS_VALUES)

    print("[experiment engine] building the Europe scenario ...")
    scenario = europe_scenario()
    kwargs = dict(
        jitter_values=JITTER_VALUES,
        loss_values=LOSS_VALUES,
        methods=METHODS,
        seed=SEED,
    )

    print(f"[experiment engine] serial ({num_cells} cells) ...")
    start = time.perf_counter()
    serial_records = robustness_sweep(scenario, n_jobs=1, **kwargs)
    serial_seconds = time.perf_counter() - start

    print("[experiment engine] n_jobs=2 (identity check, untimed) ...")
    parallel_records = robustness_sweep(scenario, n_jobs=2, **kwargs)

    # Acceptance: parallel records identical to the serial run.
    assert len(parallel_records) == len(serial_records)
    for a, b in zip(serial_records, parallel_records):
        assert a.scenario == b.scenario and a.method == b.method
        assert a.jitter_std_seconds == b.jitter_std_seconds
        assert a.loss_probability == b.loss_probability
        assert a.error == b.error
        assert (math.isnan(a.mre) and math.isnan(b.mre)) or a.mre == b.mre

    payload = {
        "scenario": "europe",
        "grid_cells": num_cells,
        "methods": list(METHODS),
        "engine_serial_seconds": serial_seconds,
        "parallel_identical_to_serial": True,
        "cpu_count": os.cpu_count(),
    }
    merge_record(RECORD_PATH, "experiment_engine", payload)

    print(f"[experiment engine] serial {serial_seconds:6.2f}s  (n_jobs=2 records identical)")
    print(f"[experiment engine] OK, recorded in {RECORD_PATH.name}")
    return payload


if __name__ == "__main__":
    main()
