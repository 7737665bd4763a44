"""Acceptance benchmark: the what-if engine's failure sweep on America.

A single-link failure sweep asks, for every directed link of the backbone,
how every demand re-routes and what the surviving links' utilisations
become — for the true traffic matrix and for each estimation method's
estimate.  The planning subsystem
(:class:`repro.planning.whatif.WhatIfEngine` inside
:func:`repro.planning.sweep.failure_sweep`) routes the base mesh once and,
per case, routes again only the demands whose path traversed the failed
link (:func:`repro.routing.reroute`: the batched next-hop kernel with the
failed link masked out), keeping every other column of the routing
matrix — and fans independent cases over a process pool.

This benchmark times ``failure_sweep`` serially on the full America-like
scenario (284 directed links, 600 demands), runs it again with
``n_jobs=4`` as a check, not a speed (on a 2-CPU host the pool costs more
than the 284 cases it spreads), and verifies that

* serial and parallel sweep records are identical, and
* on every single-link case, the engine's post-failure routing matrix
  (``WhatIfEngine.routing_for``) and infeasible pairs are *identical* to a
  from-scratch rebuild (:func:`repro.planning.full_rebuild_routing`), and
  the sweep's true and predicted maximum utilisations equal
  ``project_load`` through that rebuild,

and appends the measurement to ``BENCH_PR4.json`` at the repository root.
``tests/planning/test_sweep.py`` makes the same utilisation comparison on
link, link-pair and node cases of a small scenario.

Run directly::

    PYTHONPATH=src python benchmarks/bench_failure_sweep.py
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


def main() -> dict:
    from repro.datasets import america_scenario
    from repro.evaluation import MethodSpec, estimate_method_specs
    from repro.planning import (
        WhatIfEngine,
        enumerate_failures,
        failure_sweep,
        full_rebuild_routing,
        project_load,
    )

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
    # The estimation phase is shared by both sweeps; it is computed once up
    # front so the timings isolate the sweep machinery itself.
    estimates = estimate_method_specs(scenario, specs)

    print(f"[failure sweep] what-if engine, n_jobs={N_JOBS} ({len(cases)} cases, untimed) ...")
    parallel_records = failure_sweep(
        scenario, cases=cases, estimates=estimates, n_jobs=N_JOBS, include_baseline=False
    )

    print("[failure sweep] what-if engine, serial ...")
    start = time.perf_counter()
    serial_records = failure_sweep(
        scenario, cases=cases, estimates=estimates, n_jobs=1, include_baseline=False
    )
    serial_seconds = time.perf_counter() - start

    # Acceptance: parallel records identical to the serial run.
    assert serial_records == parallel_records, "serial and parallel sweep records differ"

    # Acceptance (untimed): engine matrices identical to full rebuilds, and
    # the sweep's utilisations equal projections through those rebuilds.
    print("[failure sweep] verifying the engine against full rebuilds ...")
    assert len(serial_records) == len(cases) * len(estimates)
    records = iter(serial_records)
    engine = WhatIfEngine(scenario.network)
    worst_drift = 0.0
    for case in cases:
        routing, result = engine.routing_for(case)
        full, infeasible = full_rebuild_routing(scenario.network, case)
        assert np.array_equal(routing.matrix, full.matrix), case.name
        assert tuple(result.infeasible) == infeasible, case.name
        for estimate in estimates:
            record = next(records)
            assert (record.case, record.method) == (case.name, estimate.label)
            truth = project_load(full, estimate.truth, case=case, infeasible_pairs=infeasible)
            predicted = project_load(
                full, estimate.estimate, case=case, infeasible_pairs=infeasible
            )
            worst_drift = max(
                worst_drift,
                abs(truth.max_utilisation - record.true_max_utilisation),
                abs(predicted.max_utilisation - record.predicted_max_utilisation),
            )
    assert worst_drift < 1e-12, f"engine/full-rebuild utilisation drift {worst_drift:.2e}"

    payload = {
        "scenario": "america",
        "num_cases": len(cases),
        "methods": [spec.label for spec in specs],
        "engine_serial_seconds": serial_seconds,
        "n_jobs": N_JOBS,
        "parallel_identical_to_serial": True,
        "engine_identical_to_full_rebuild": True,
        "max_utilisation_drift_vs_full_rebuild": worst_drift,
        "cpu_count": os.cpu_count(),
    }
    merge_record(RECORD_PATH, "failure_sweep", payload)

    print(
        f"[failure sweep] engine serial {serial_seconds:6.2f}s  "
        f"(n_jobs={N_JOBS} records identical)  utilisation drift {worst_drift:.1e}"
    )
    print(f"[failure sweep] OK, recorded in {RECORD_PATH.name}")
    return payload


if __name__ == "__main__":
    main()
