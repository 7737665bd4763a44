"""Acceptance benchmark: the what-if engine's failure sweep vs naive full rebuilds.

A single-link failure sweep asks, for every directed link of the backbone,
how every demand re-routes and what the surviving links' utilisations
become — for the true traffic matrix and for each estimation method's
estimate.  The naive approach rebuilds the world per case: derive the
surviving topology, re-signal the *entire* mesh from scratch, assemble a
fresh routing matrix, then project.  The planning subsystem
(:class:`repro.planning.whatif.WhatIfEngine` inside
:func:`repro.planning.sweep.failure_sweep`) routes the base mesh once and,
per case, routes again only the demands whose path traversed the failed
link (:func:`repro.routing.reroute`: the batched next-hop kernel with the
failed link masked out), keeping every other column of the routing
matrix — and fans independent cases over a process pool.

This benchmark times the naive serial full-rebuild sweep against
``failure_sweep(..., n_jobs=4)`` on the full America-like scenario (284
directed links, 600 demands), verifies that

* the engine's post-failure routing matrices (``WhatIfEngine.routing_for``)
  and infeasible pairs are *identical* to the from-scratch rebuilds on
  every single-link case,
* serial and parallel sweep records are identical, and
* the naive and engine sweeps report the same utilisation numbers,

and appends the measurement to ``BENCH_PR4.json`` at the repository root.

Run directly (CI uses a relaxed threshold for slower shared runners)::

    PYTHONPATH=src python benchmarks/bench_failure_sweep.py
    PYTHONPATH=src BENCH_PR4_MIN_SWEEP_SPEEDUP=2.0 python benchmarks/bench_failure_sweep.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchrecord import REPO_ROOT, merge_record

RECORD_PATH = REPO_ROOT / "BENCH_PR4.json"
N_JOBS = 4


def naive_full_rebuild_sweep(scenario, estimates, cases):
    """The pre-subsystem sweep: per case, rebuild everything from scratch.

    Re-signals the full mesh on a freshly derived surviving topology for
    every case and projects truth and estimates through the new matrix.
    Returns ``(case, method, true_max_util, predicted_max_util)`` tuples in
    the same case-major order as ``failure_sweep``.
    """
    from repro.planning import full_rebuild_routing, project_load

    rows = []
    for case in cases:
        routing, infeasible = full_rebuild_routing(scenario.network, case)
        for result in estimates:
            truth_projection = project_load(
                routing, result.truth, case=case, infeasible_pairs=infeasible
            )
            estimate_projection = project_load(
                routing, result.estimate, case=case, infeasible_pairs=infeasible
            )
            rows.append(
                (
                    case.name,
                    result.label,
                    truth_projection.max_utilisation,
                    estimate_projection.max_utilisation,
                )
            )
    return rows


def main() -> dict:
    from repro.datasets import america_scenario
    from repro.evaluation import MethodSpec, estimate_method_specs
    from repro.planning import (
        WhatIfEngine,
        enumerate_failures,
        failure_sweep,
        full_rebuild_routing,
    )

    minimum_speedup = float(os.environ.get("BENCH_PR4_MIN_SWEEP_SPEEDUP", "3.0"))

    print("[failure sweep] building the America scenario ...")
    scenario = america_scenario()
    cases = enumerate_failures(scenario.network, kinds=("link",))
    specs = (
        MethodSpec(label="Simple gravity prior", estimator="gravity"),
        MethodSpec(
            label="Entropy w. gravity prior",
            estimator="entropy",
            params={"regularization": 1000.0, "prior": "gravity"},
        ),
    )
    # The estimation phase is shared by both sweep engines; it is computed
    # once up front so the timings isolate the sweep machinery itself.
    estimates = estimate_method_specs(scenario, specs)

    print(f"[failure sweep] naive serial full-rebuild sweep ({len(cases)} cases) ...")
    start = time.perf_counter()
    naive_rows = naive_full_rebuild_sweep(scenario, estimates, cases)
    naive_seconds = time.perf_counter() - start

    print(f"[failure sweep] what-if engine, n_jobs={N_JOBS} ...")
    start = time.perf_counter()
    parallel_records = failure_sweep(
        scenario, cases=cases, estimates=estimates, n_jobs=N_JOBS, include_baseline=False
    )
    parallel_seconds = time.perf_counter() - start

    print("[failure sweep] what-if engine, serial ...")
    start = time.perf_counter()
    serial_records = failure_sweep(
        scenario, cases=cases, estimates=estimates, n_jobs=1, include_baseline=False
    )
    serial_seconds = time.perf_counter() - start

    # Acceptance: parallel records identical to the serial run.
    assert serial_records == parallel_records, "serial and parallel sweep records differ"

    # Acceptance: naive and engine sweeps report the same utilisations.
    assert len(naive_rows) == len(serial_records)
    worst_drift = 0.0
    for row, record in zip(naive_rows, serial_records):
        assert row[0] == record.case and row[1] == record.method
        worst_drift = max(
            worst_drift,
            abs(row[2] - record.true_max_utilisation),
            abs(row[3] - record.predicted_max_utilisation),
        )
    assert worst_drift < 1e-12, f"naive/engine utilisation drift {worst_drift:.2e}"

    # Acceptance: engine matrices identical to full rebuilds (untimed).
    print("[failure sweep] verifying engine == full-rebuild matrices ...")
    engine = WhatIfEngine(scenario.network)
    for case in cases:
        routing, result = engine.routing_for(case)
        full, infeasible = full_rebuild_routing(scenario.network, case)
        assert np.array_equal(routing.matrix, full.matrix), case.name
        assert tuple(result.infeasible) == infeasible, case.name

    speedup = naive_seconds / parallel_seconds
    payload = {
        "scenario": "america",
        "num_cases": len(cases),
        "methods": [spec.label for spec in specs],
        "naive_serial_seconds": naive_seconds,
        "engine_serial_seconds": serial_seconds,
        "engine_parallel_seconds": parallel_seconds,
        "n_jobs": N_JOBS,
        "speedup": speedup,
        "minimum_speedup": minimum_speedup,
        "parallel_identical_to_serial": True,
        "engine_identical_to_full_rebuild": True,
        "max_utilisation_drift_vs_naive": worst_drift,
        "cpu_count": os.cpu_count(),
    }
    merge_record(RECORD_PATH, "failure_sweep", payload)

    print(
        f"[failure sweep] naive {naive_seconds:6.2f}s  "
        f"engine serial {serial_seconds:6.2f}s  n_jobs={N_JOBS} {parallel_seconds:6.2f}s  "
        f"speedup {speedup:5.2f}x"
    )
    assert speedup >= minimum_speedup, (
        f"failure sweep speedup {speedup:.2f}x below the required {minimum_speedup:.1f}x"
    )
    print(f"[failure sweep] OK (>= {minimum_speedup:.1f}x), recorded in {RECORD_PATH.name}")
    return payload


if __name__ == "__main__":
    main()
