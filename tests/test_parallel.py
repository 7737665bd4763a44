"""The ``effective_jobs`` policy, shared payloads, and pool guarantees.

BENCH_PR3 recorded ``engine_parallel_seconds > engine_serial_seconds`` at
``cpu_count: 1``: asking for ``n_jobs=2`` on a single-core box spawned a
process pool that paid interpreter start-up and pickling for zero
concurrency.  The fix clamps the resolved job count to the CPU count, and
every engine skips pool creation entirely when the resolved count is 1 —
which these tests assert directly by making pool construction an error.

The shared-payload helpers (``share_payload`` / ``resolve_payload`` /
``payload_executor``) are how the experiment and sweep engines stop pickling
the routing matrix into every worker task: the payload registers once in
the parent, workers inherit it by fork (or receive it once per worker
under spawn) and tasks carry only a tiny :class:`PayloadRef` token.
"""

from __future__ import annotations

import concurrent.futures
import os

import pytest

from repro.datasets import small_scenario
from repro.errors import EstimationError
from repro.parallel import (
    PayloadRef,
    effective_jobs,
    payload_executor,
    release_payload,
    resolve_payload,
    share_payload,
)


@pytest.fixture(scope="module")
def scenario():
    return small_scenario(seed=21, num_nodes=5, busy_length=12, num_samples=40)


class _ForbiddenPool:
    """Stands in for ProcessPoolExecutor; instantiating it fails the test."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was created for a serial-resolved run")


@pytest.fixture
def forbid_pools(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ForbiddenPool)


@pytest.fixture
def single_cpu(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


class TestEffectiveJobs:
    def test_single_task_is_always_serial(self):
        assert effective_jobs(8, 1) == 1
        assert effective_jobs(None, 0) == 1

    def test_clamped_to_task_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert effective_jobs(8, 3) == 3

    def test_clamped_to_cpu_count(self, single_cpu):
        # The BENCH_PR3 regression: n_jobs=2 on one core must resolve to 1.
        assert effective_jobs(2, 6) == 1

    def test_none_means_all_cores_up_to_tasks(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert effective_jobs(None, 10) == 4
        assert effective_jobs(None, 2) == 2

    def test_invalid_n_jobs_raises_callers_error(self):
        with pytest.raises(EstimationError):
            effective_jobs(0, 5, error=EstimationError)

    def test_cpu_count_none_treated_as_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert effective_jobs(4, 8) == 1


def _payload_first_element(ref):
    """Module-level worker: resolve the shared payload in a pool process."""
    return resolve_payload(ref)[0]


class TestSharedPayloads:
    def test_round_trip_and_release(self):
        ref = share_payload({"alpha": 1})
        assert isinstance(ref, PayloadRef)
        assert resolve_payload(ref) == {"alpha": 1}
        release_payload(ref)
        release_payload(ref)  # idempotent
        with pytest.raises(RuntimeError, match="payload"):
            resolve_payload(ref)

    def test_non_refs_pass_through_unchanged(self):
        payload = ("anything", 42)
        assert resolve_payload(payload) is payload

    def test_refs_pickle_small(self):
        import pickle

        ref = share_payload(list(range(10_000)))
        try:
            assert len(pickle.dumps(ref)) < 200
        finally:
            release_payload(ref)

    def test_payload_executor_resolves_in_workers(self):
        ref = share_payload(("shared-value", [1, 2, 3]))
        try:
            with payload_executor(max_workers=2) as pool:
                results = list(pool.map(_payload_first_element, [ref] * 4))
        finally:
            release_payload(ref)
        assert results == ["shared-value"] * 4


class TestNoPoolSpawn:
    """Engines must not create a process pool when one worker is resolved."""

    def test_run_method_specs_single_core(self, scenario, single_cpu, forbid_pools):
        from repro.evaluation.experiments import default_method_specs, run_method_specs

        specs = default_method_specs()[:3]
        records = run_method_specs(scenario, specs, n_jobs=4)
        assert len(records) == len(specs)

    def test_robustness_sweep_single_core(self, scenario, single_cpu, forbid_pools):
        from repro.evaluation.experiments import robustness_sweep

        records = robustness_sweep(
            scenario,
            jitter_values=(0.0,),
            loss_values=(0.0, 0.01),
            methods=("gravity",),
            seed=3,
            n_jobs=2,
        )
        assert len(records) == 2

    def test_failure_sweep_single_core(self, scenario, single_cpu, forbid_pools):
        from repro.evaluation.experiments import MethodSpec
        from repro.planning.sweep import failure_sweep

        records = failure_sweep(
            scenario, specs=[MethodSpec(label="gravity", estimator="gravity")], n_jobs=8
        )
        assert records

    def test_bounds_batch_tiny_batch(self, forbid_pools):
        # A single-variable batch resolves to one worker regardless of
        # n_jobs or core count: no pool may be spawned for it.
        import numpy as np

        from repro.optimize.linear_program import bound_variables_batch

        matrix = np.array([[1.0, 1.0]])
        rhs = np.array([2.0])
        result = bound_variables_batch([0], matrix, rhs, n_jobs=4)
        assert result.lower[0] == pytest.approx(0.0, abs=1e-8)
        assert result.upper[0] == pytest.approx(2.0, abs=1e-8)


def _mutating_worker(ref):
    """Module-level worker that tries to write into a shared payload."""
    payload = resolve_payload(ref)
    try:
        payload["vector"][0] = 99.0
    except ValueError:
        return "refused"
    return "mutated"


class TestReadOnlyPayloads:
    """``resolve_payload`` hands out read-only views of shared arrays.

    A worker that writes into a resolved payload would corrupt
    copy-on-write pages under fork (or diverge per-worker state under
    spawn), silently breaking the serial==parallel record invariant.  The
    views make that mistake raise ``ValueError`` at the write site; the
    reprolint ``pool-safety`` rule catches the same mistake statically.
    """

    def test_resolved_arrays_are_read_only(self):
        import numpy as np

        original = np.arange(4.0)
        ref = share_payload(original)
        try:
            view = resolve_payload(ref)
            assert not view.flags.writeable
            assert np.shares_memory(view, original)  # a view, not a copy
            with pytest.raises(ValueError):
                view[0] = -1.0
        finally:
            release_payload(ref)

    def test_containers_are_recursed(self):
        import numpy as np

        payload = {"vector": np.ones(3), "nested": [np.zeros(2), "label"], "pair": (np.ones(1),)}
        ref = share_payload(payload)
        try:
            resolved = resolve_payload(ref)
            assert not resolved["vector"].flags.writeable
            assert not resolved["nested"][0].flags.writeable
            assert not resolved["pair"][0].flags.writeable
            assert resolved["nested"][1] == "label"
        finally:
            release_payload(ref)

    def test_parent_arrays_stay_writable(self):
        import numpy as np

        original = np.zeros(3)
        ref = share_payload(original)
        try:
            resolve_payload(ref)
            original[0] = 7.0  # the parent's own array is untouched
            assert original[0] == 7.0
        finally:
            release_payload(ref)

    def test_passthrough_values_are_not_wrapped(self):
        import numpy as np

        array = np.zeros(2)
        assert resolve_payload(array) is array
        assert array.flags.writeable

    def test_mutating_worker_fails_loudly(self):
        import numpy as np

        ref = share_payload({"vector": np.zeros(3)})
        try:
            with payload_executor(max_workers=2) as pool:
                results = list(pool.map(_mutating_worker, [ref] * 4))
        finally:
            release_payload(ref)
        assert results == ["refused"] * 4
