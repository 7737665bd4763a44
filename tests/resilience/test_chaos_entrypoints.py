"""Chaos drill: every experiment entry point survives every fault class.

The acceptance contract: under seeded fault plans — poll-loss bursts,
counter resets, clock skew, stuck counters, collector outages, worker
crashes, worker hangs, and solver non-convergence — all three entry points
(:func:`~repro.evaluation.experiments.run_method_specs`, also on
``registry_specs`` rows, :func:`~repro.evaluation.experiments.robustness_sweep`
and :func:`~repro.planning.sweep.failure_sweep`) complete without an
unhandled exception, every degraded result carries a
structured degradation report naming the fault and the fallback, and
serial and parallel runs produce identical records *including* those
reports.

``CHAOS_SEED`` (environment) shifts every plan seed, so CI can sweep a
seed matrix without code changes.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np
import pytest

from repro.datasets import small_scenario
from repro.evaluation.experiments import (
    MethodSpec,
    registry_specs,
    robustness_sweep,
    run_method_specs,
)
from repro.parallel import clear_worker_faults, install_worker_faults
from repro.planning.sweep import failure_sweep
from repro.resilience import (
    ClockSkew,
    CollectorOutage,
    CounterReset,
    PollLossBurst,
    StuckCounter,
    WorkerFaultPlan,
    fault_plan,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: One representative plan per measurement fault class.  Counter32 wraps are
#: exercised at the SNMP layer (tests/measurement), where rates can be kept
#: below the half-space disambiguation bound; this scenario's ~650 Mbit/s
#: links overrun a 32-bit counter within one 300 s interval by design.
MEASUREMENT_PLANS = {
    "poll-loss-burst": fault_plan(
        PollLossBurst(start_round=3, num_rounds=4, fraction=0.7), seed=CHAOS_SEED
    ),
    "counter-reset": fault_plan(CounterReset(round_index=9), seed=CHAOS_SEED + 1),
    "clock-skew": fault_plan(
        ClockSkew(offset_seconds=20.0, start_round=5), seed=CHAOS_SEED + 2
    ),
    "stuck-counter": fault_plan(
        StuckCounter(start_round=4, num_rounds=3), seed=CHAOS_SEED + 3
    ),
    "collector-outage": fault_plan(
        CollectorOutage(poller_index=0, start_round=6, num_rounds=2),
        seed=CHAOS_SEED + 4,
    ),
}

SPECS = (
    MethodSpec(label="Gravity", estimator="gravity"),
    MethodSpec(label="Tomogravity", estimator="tomogravity"),
    MethodSpec(
        label="Supervised entropy",
        estimator="supervised",
        params={
            "primary": "entropy",
            "primary_params": {"prior": "gravity"},
            "fallbacks": ("tomogravity", "gravity"),
            "max_iterations": 2,  # solver non-convergence: budget always fires
        },
    ),
)


@pytest.fixture(scope="module")
def scenario():
    return small_scenario(seed=7, num_nodes=6, busy_length=8, num_samples=16)


@pytest.fixture(autouse=True)
def no_leftover_faults():
    clear_worker_faults()
    yield
    clear_worker_faults()


def records_identical(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        for fld in a.__dataclass_fields__:
            left, right = getattr(a, fld), getattr(b, fld)
            if isinstance(left, float) and math.isnan(left):
                assert isinstance(right, float) and math.isnan(right), fld
            else:
                assert left == right, fld


def test_run_method_specs_under_solver_and_worker_faults(scenario):
    install_worker_faults(
        WorkerFaultPlan(crash_tasks=(0,), hang_tasks=(1,), hang_seconds=30.0)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        serial = run_method_specs(scenario, SPECS, n_jobs=1, skip_errors=True)
        parallel = run_method_specs(
            scenario, SPECS, n_jobs=2, skip_errors=True, task_timeout=60.0
        )
    records_identical(serial, parallel)
    degraded = {r.method: r for r in serial if r.degradation is not None}
    report = degraded["Supervised entropy"].degradation
    assert report["degraded"]
    assert report["requested"] == "entropy"
    assert report["used"] in ("tomogravity", "gravity")
    assert any(e["stage"] == "budget" for e in report["events"])
    assert all(np.isfinite(r.mre) for r in serial)


@pytest.mark.parametrize("fault_name", sorted(MEASUREMENT_PLANS))
def test_robustness_sweep_under_measurement_faults(scenario, fault_name):
    plan = MEASUREMENT_PLANS[fault_name]
    kwargs = dict(
        jitter_values=(0.0, 1.0),
        loss_values=(0.02,),
        methods=["gravity", "tomogravity"],
        seed=CHAOS_SEED,
        fault_plan=plan,
        num_pollers=2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        serial = robustness_sweep(scenario, n_jobs=1, **kwargs)
        parallel = robustness_sweep(scenario, n_jobs=2, **kwargs)
    records_identical(serial, parallel)
    assert len(serial) == 4  # 2 jitter x 1 loss x 2 methods
    for record in serial:
        assert record.failure is None and np.isfinite(record.mre)


def test_failure_sweep_reports_fallbacks_per_case(scenario):
    specs = [
        MethodSpec(label="Gravity", estimator="gravity"),
        MethodSpec(
            label="Supervised",
            estimator="supervised",
            params={
                "primary": "tomogravity",
                "fallbacks": ("gravity",),
                "inject_failures": 1,
            },
        ),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        serial = failure_sweep(scenario, specs=specs, n_jobs=1)
        parallel = failure_sweep(scenario, specs=specs, n_jobs=2)
    records_identical(serial, parallel)
    supervised = [r for r in serial if r.method == "Supervised"]
    assert supervised
    for record in supervised:
        assert record.degradation is not None
        assert record.degradation["used"] == "gravity"
        assert any(
            "injected failure" in e["detail"] for e in record.degradation["events"]
        )


@pytest.mark.parametrize("fault_name", ["poll-loss-burst", "collector-outage"])
def test_registry_rows_with_tomogravity_under_faults(scenario, fault_name):
    measured = scenario.measured(
        loss_probability=0.02,
        num_pollers=2,
        seed=CHAOS_SEED,
        fault_plan=MEASUREMENT_PLANS[fault_name],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = registry_specs(
            [
                "tomogravity",
                (
                    "supervised",
                    {"primary": "entropy", "max_iterations": 2,
                     "primary_params": {"prior": "gravity"}},
                ),
            ],
            window=4,
        )
        records = run_method_specs(measured, rows, skip_errors=True)
    assert [r.method for r in records] == ["tomogravity", "supervised"]
    for record in records:
        assert not record.skipped and np.isfinite(record.mre)
    assert records[0].degradation is None
    supervised = records[1]
    assert supervised.degradation is not None and supervised.degradation["degraded"]
    assert supervised.degradation["requested"] == "entropy"
