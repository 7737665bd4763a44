"""Traces across the process pool.

Workers record spans locally (isolated per task with ``capture``), ship
them home inside the task envelope, and the parent re-parents the remote
roots under the submitting ``pool.run`` span — so one trace covers the
whole fan-out.  Worker metrics merge into the parent registry with the
same totals a serial run would have recorded.  None of this may leak
into task *results*: serial and parallel experiment records stay
identical with telemetry enabled (the PR 3/8 invariant).
"""

from __future__ import annotations

import math
import os

import pytest

from repro import telemetry
from repro.evaluation.experiments import MethodSpec, method_comparison, run_method_specs
from repro.parallel import run_supervised_tasks


def traced_square(value):
    with telemetry.span("task.work", value=value):
        telemetry.counter_inc("task.calls")
        return value * value


TASKS = [(i,) for i in range(4)]
EXPECTED = [i * i for i in range(4)]


def spans_named(records, name):
    return [r for r in records if r.name == name]


class TestPoolSpans:
    def test_worker_spans_come_home_reparented(self, telemetry_on):
        results, report = run_supervised_tasks(traced_square, TASKS, jobs=2)
        assert results == EXPECTED
        records = telemetry.drain_spans()
        (pool_run,) = spans_named(records, "pool.run")
        assert pool_run.attributes["tasks"] == len(TASKS)
        task_spans = spans_named(records, "pool.task")
        assert len(task_spans) == len(TASKS)
        assert {s.attributes["task_index"] for s in task_spans} == set(range(len(TASKS)))
        parent_pid = os.getpid()
        for task_span in task_spans:
            assert task_span.parent_id == pool_run.span_id
            assert task_span.process != parent_pid  # recorded inside a worker
            assert task_span.attributes["queue_wait_seconds"] >= 0.0
        # the user-level span inside the task kept its worker-local parent
        work_spans = spans_named(records, "task.work")
        assert len(work_spans) == len(TASKS)
        task_ids = {s.span_id for s in task_spans}
        assert all(s.parent_id in task_ids for s in work_spans)
        assert report.remote_spans == len(task_spans) + len(work_spans)
        assert pool_run.attributes["remote_spans"] == report.remote_spans

    def test_worker_metrics_merge_to_serial_totals(self, telemetry_on):
        run_supervised_tasks(traced_square, TASKS, jobs=2)
        snapshot = telemetry.metrics_snapshot()
        assert snapshot["counters"]["task.calls"] == len(TASKS)
        waits = snapshot["histograms"]["pool.queue_wait_seconds"]
        executes = snapshot["histograms"]["pool.execute_seconds"]
        assert waits["count"] == len(TASKS)
        assert executes["count"] == len(TASKS)

    def test_serial_jobs_record_spans_inline(self, telemetry_on):
        results, report = run_supervised_tasks(traced_square, TASKS, jobs=1)
        assert results == EXPECTED
        assert report.remote_spans == 0
        records = telemetry.drain_spans()
        work_spans = spans_named(records, "task.work")
        assert len(work_spans) == len(TASKS)
        assert all(s.process == os.getpid() for s in work_spans)

    def test_disabled_pool_ships_nothing(self):
        results, report = run_supervised_tasks(traced_square, TASKS, jobs=2)
        assert results == EXPECTED
        assert report.remote_spans == 0
        assert telemetry.collected_spans() == ()
        assert telemetry.metrics_snapshot()["counters"] == {}


SPECS = (
    MethodSpec(label="Gravity", estimator="gravity"),
    MethodSpec(label="Tomogravity", estimator="tomogravity"),
    MethodSpec(label="Kruithof", estimator="kruithof"),
)


class TestRecordIdentity:
    def test_serial_equals_parallel_with_telemetry_on(
        self, telemetry_on, small_scenario_session
    ):
        serial = run_method_specs(small_scenario_session, SPECS, n_jobs=1)
        parallel = run_method_specs(small_scenario_session, SPECS, n_jobs=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            for fld in a.__dataclass_fields__:
                left, right = getattr(a, fld), getattr(b, fld)
                if isinstance(left, float) and math.isnan(left):
                    assert isinstance(right, float) and math.isnan(right), fld
                else:
                    assert left == right, fld


@pytest.mark.slow
def test_pooled_method_comparison_trace_has_a_task_per_spec(
    tmp_path, telemetry_on, monkeypatch
):
    """Acceptance pin: the exported Chrome trace of a pooled N=200 method
    comparison holds one re-parented worker task per spec, each carrying
    its spec span and the worker-side estimate beneath it."""
    import json

    from repro.datasets import large_scenario

    # effective_jobs() clamps to the CPU count; pin it so the specs
    # actually cross the pool even on a single-CPU runner
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    scenario = large_scenario(num_nodes=200, seed=3, busy_length=4, num_samples=8)
    records = method_comparison(scenario, specs=SPECS, n_jobs=2)
    assert [r.method for r in records] == [spec.label for spec in SPECS]
    assert all(r.failure is None for r in records)

    trace_path = tmp_path / "trace.json"
    telemetry.export_chrome_trace(str(trace_path), telemetry.drain_spans())
    events = json.loads(trace_path.read_text())["traceEvents"]
    (pool_run,) = [e for e in events if e["name"] == "pool.run"]
    task_events = [e for e in events if e["name"] == "pool.task"]
    assert len(task_events) == len(SPECS)
    parent_pid = os.getpid()
    for event in task_events:
        assert event["args"]["parent_id"] == pool_run["args"]["span_id"]
        assert event["pid"] != parent_pid
    task_ids = {e["args"]["span_id"] for e in task_events}
    spec_events = [
        e
        for e in events
        if e["name"] == "experiment.spec" and e["args"]["parent_id"] in task_ids
    ]
    assert sorted(e["args"]["spec"] for e in spec_events) == sorted(
        spec.label for spec in SPECS
    )
    spec_ids = {e["args"]["span_id"] for e in spec_events}
    worker_estimates = [
        e
        for e in events
        if e["name"].startswith("estimate[") and e["args"].get("parent_id") in spec_ids
    ]
    assert len(worker_estimates) == len(SPECS)
