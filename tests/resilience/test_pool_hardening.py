"""Supervised pool execution: crashes, hangs, and the serial safety net.

The contract under test: :func:`repro.parallel.run_supervised_tasks`
returns the same results as the plain serial loop no matter what the pool
infrastructure does — a worker crash triggers resubmission on a fresh
pool, an exhausted resubmission budget falls back to serial re-execution
in the parent (where injected faults never fire), a hung task is cut off
by the per-task timeout, and *task-level* exceptions still propagate
unchanged.  Pool incidents surface as ``RuntimeWarning``s and
:class:`~repro.parallel.PoolReport` events, never inside the results.
"""

from __future__ import annotations

import multiprocessing
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import EstimationError
from repro.parallel import (
    PoolReport,
    clear_worker_faults,
    install_worker_faults,
    run_supervised_tasks,
)
from repro.resilience import WorkerFaultPlan


def square(value):
    return value * value


def failing(value):
    raise EstimationError(f"task {value} failed")


@pytest.fixture(autouse=True)
def no_leftover_faults():
    clear_worker_faults()
    yield
    clear_worker_faults()


TASKS = [(i,) for i in range(6)]
EXPECTED = [i * i for i in range(6)]


def test_serial_path_runs_in_the_parent():
    results, report = run_supervised_tasks(square, TASKS, jobs=1)
    assert results == EXPECTED
    assert report == PoolReport()
    assert not report.degraded


def test_clean_pool_matches_serial():
    results, report = run_supervised_tasks(square, TASKS, jobs=2)
    assert results == EXPECTED
    assert not report.degraded


def test_worker_crash_is_resubmitted():
    install_worker_faults(WorkerFaultPlan(crash_tasks=(2,), crash_rounds=1))
    with pytest.warns(RuntimeWarning, match="pool degradation"):
        results, report = run_supervised_tasks(square, TASKS, jobs=2)
    assert results == EXPECTED
    kinds = {event.kind for event in report.events}
    assert "broken-pool" in kinds and "resubmitted" in kinds


def test_persistent_crash_falls_back_to_serial_rerun():
    # The fault fires on every pool attempt; only the parent can finish it.
    install_worker_faults(WorkerFaultPlan(crash_tasks=(1,), crash_rounds=99))
    with pytest.warns(RuntimeWarning):
        results, report = run_supervised_tasks(
            square, TASKS, jobs=2, max_resubmissions=1
        )
    assert results == EXPECTED
    assert any(event.kind == "serial-rerun" for event in report.events)


def test_pool_broken_during_submission_falls_back(monkeypatch):
    # The worker dies while tasks are still being submitted, so the pool's
    # third submit raises instead of returning a future.
    import repro.parallel as parallel

    real_executor = parallel.payload_executor
    pools = []

    def breaking_executor(max_workers):
        pool = real_executor(max_workers)
        if not pools:
            real_submit = pool.submit
            calls = []

            def submit(*args, **kwargs):
                calls.append(None)
                if len(calls) == 3:
                    raise BrokenProcessPool("worker died during submission")
                return real_submit(*args, **kwargs)

            pool.submit = submit
        pools.append(pool)
        return pool

    monkeypatch.setattr(parallel, "payload_executor", breaking_executor)
    with pytest.warns(RuntimeWarning, match="pool degradation"):
        results, report = run_supervised_tasks(square, TASKS, jobs=2)
    assert results == [square(*args) for args in TASKS]
    kinds = [event.kind for event in report.events]
    assert "broken-pool" in kinds
    assert "resubmitted" in kinds or "serial-rerun" in kinds


def test_hung_task_is_cut_off_by_the_timeout():
    install_worker_faults(
        WorkerFaultPlan(hang_tasks=(0,), hang_seconds=60.0, hang_rounds=99)
    )
    with pytest.warns(RuntimeWarning):
        results, report = run_supervised_tasks(
            square, TASKS, jobs=2, timeout=1.5, max_resubmissions=0
        )
    assert results == EXPECTED  # serial rerun finished the hung task
    kinds = [event.kind for event in report.events]
    assert "timeout" in kinds and "serial-rerun" in kinds


def test_task_exceptions_propagate_unchanged():
    with pytest.raises(EstimationError, match="task 3 failed"):
        run_supervised_tasks(failing, [(3,)], jobs=1)
    with pytest.raises(EstimationError, match="task 0 failed"):
        run_supervised_tasks(failing, [(i,) for i in range(4)], jobs=2)


def test_timed_out_pool_leaves_no_worker_behind():
    # The hung worker is terminated and reaped, so it cannot hold the
    # interpreter's exit until its task ends.
    install_worker_faults(
        WorkerFaultPlan(hang_tasks=(0,), hang_seconds=60.0, hang_rounds=99)
    )
    with pytest.warns(RuntimeWarning):
        results, _ = run_supervised_tasks(
            square, TASKS, jobs=2, timeout=1.5, max_resubmissions=0
        )
    assert results == EXPECTED
    assert multiprocessing.active_children() == []


def test_raising_task_leaves_no_worker_behind():
    with pytest.raises(EstimationError, match="task 0 failed"):
        run_supervised_tasks(failing, [(i,) for i in range(4)], jobs=2)
    assert multiprocessing.active_children() == []


def test_faults_never_fire_in_the_parent():
    install_worker_faults(WorkerFaultPlan(crash_tasks=tuple(range(6)), crash_rounds=99))
    results, report = run_supervised_tasks(square, TASKS, jobs=1)
    assert results == EXPECTED
    assert not report.degraded


def test_results_keep_task_order_under_chaos():
    install_worker_faults(WorkerFaultPlan(crash_tasks=(0, 4), crash_rounds=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results, _ = run_supervised_tasks(square, TASKS, jobs=3)
    assert results == EXPECTED
