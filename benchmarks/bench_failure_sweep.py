"""Ledger tier ``failure-sweep``: the what-if engine's failure sweep on America.

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

The tier times ``failure_sweep`` serially on the full America-like scenario
(284 directed links, 600 demands), runs it again with ``n_jobs=4`` as a
check, not a speed (on a 2-CPU host the pool costs more than the 284 cases
it spreads), and checks that

* serial and pooled sweep records are identical,
* on every single-link case, the engine's post-failure routing matrix
  (``WhatIfEngine.routing_for``) and infeasible pairs are *identical* to a
  from-scratch rebuild (:func:`repro.planning.full_rebuild_routing`), and
* the sweep's true and predicted maximum utilisations equal
  ``project_load`` through that rebuild to within 1e-12.

``tests/planning/test_sweep.py`` makes the same utilisation comparison on
link, link-pair and node cases of a small scenario.  Run the tier with
``python benchmarks/ledger.py failure-sweep``.
"""

from __future__ import annotations

import time

import numpy as np

N_JOBS = 4
MAX_DRIFT = 1e-12


def measure() -> tuple[dict, dict, dict]:
    from repro.datasets import america_scenario
    from repro.evaluation import MethodSpec, estimate_method_specs
    from repro.planning import (
        WhatIfEngine,
        enumerate_failures,
        failure_sweep,
        full_rebuild_routing,
        project_load,
    )

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
    # Both sweeps project the same estimates, computed once up front so the
    # timing isolates the sweep machinery itself.
    estimates = estimate_method_specs(scenario, specs)
    pooled = failure_sweep(
        scenario, cases=cases, estimates=estimates, n_jobs=N_JOBS, include_baseline=False
    )
    start = time.perf_counter()
    serial = failure_sweep(
        scenario, cases=cases, estimates=estimates, n_jobs=1, include_baseline=False
    )
    serial_s = time.perf_counter() - start

    # Untimed: every case against a from-scratch rebuild.
    engine = WhatIfEngine(scenario.network)
    rebuilds_identical = len(serial) == len(cases) * len(estimates)
    drift = 0.0
    records = iter(serial)
    for case in cases:
        routing, result = engine.routing_for(case)
        full, infeasible = full_rebuild_routing(scenario.network, case)
        rebuilds_identical &= np.array_equal(routing.matrix, full.matrix)
        rebuilds_identical &= tuple(result.infeasible) == infeasible
        for estimate, record in zip(estimates, records):
            rebuilds_identical &= (record.case, record.method) == (case.name, estimate.label)
            truth = project_load(full, estimate.truth, case=case, infeasible_pairs=infeasible)
            predicted = project_load(
                full, estimate.estimate, case=case, infeasible_pairs=infeasible
            )
            drift = max(
                drift,
                abs(truth.max_utilisation - record.true_max_utilisation),
                abs(predicted.max_utilisation - record.predicted_max_utilisation),
            )

    inputs = {
        "scenario": "america",
        "cases": len(cases),
        "methods": [spec.label for spec in specs],
        "n_jobs": N_JOBS,
        "max_drift": MAX_DRIFT,
    }
    metrics = {
        "serial_s": (serial_s, "s"),
        "utilisation_drift": (drift, "utilisation"),
    }
    checks = {
        "pooled_records_equal_serial": serial == pooled,
        "engine_equals_full_rebuild": bool(rebuilds_identical),
        "utilisation_drift_below_bound": drift < MAX_DRIFT,
    }
    return inputs, metrics, checks
