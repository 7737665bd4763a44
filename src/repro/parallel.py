"""Shared helpers for the process-pool execution layers.

The parallel engines — the experiment runners
(:mod:`repro.evaluation.experiments`) and the planning failure sweep
(:mod:`repro.planning.sweep`) — resolve their ``n_jobs`` parameter with
the same policy, kept here so the engines cannot drift: ``None`` means every
core, the count is clamped to both the number of independent tasks and the
number of CPUs actually present, and anything below 1 is an error (raised
as the caller's own exception type).

The CPU clamp matters: spawning worker processes on a single-core box (or
asking for more workers than cores for CPU-bound work) pays interpreter
start-up and pickling for zero concurrency — the experiment-engine
benchmark once read a parallel run *slower* than serial at
``cpu_count: 1`` for exactly this reason.  Every engine skips pool
creation entirely whenever the resolved job count is 1
(:func:`run_supervised_tasks` then runs each task in the parent), so tiny
batches and single-core machines always take the plain serial loop.

The second half of this module is the **shared-payload** machinery: a way
to hand large read-only objects (routing matrices, what-if engines, method
estimates) to pool workers without pickling them into every task — and,
on fork-capable platforms, without pickling them at all.  A payload is
registered once in the parent with :func:`share_payload`, which returns a
tiny :class:`PayloadRef` token.  Tasks ship the token; workers call
:func:`resolve_payload` to get the object back:

* with the ``fork`` start method (Linux default) the child process
  inherits the parent's payload registry through copy-on-write memory, so
  the object is never serialised;
* with ``spawn``/``forkserver`` the :func:`payload_executor` initializer
  re-registers the payloads in each worker — one pickle per worker, never
  per task, matching the initializer pattern the engines used before.

Either way the worker operates on an exact copy of the parent object, so
serial and parallel runs produce identical records.  To keep that true by
construction, :func:`resolve_payload` hands payloads out *read-only*: every
ndarray in the resolved object comes back as a ``writeable=False`` view, so
a worker that tries to mutate shared state raises immediately instead of
corrupting copy-on-write pages.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Type

import numpy as np

from repro import telemetry

__all__ = [
    "effective_jobs",
    "PayloadRef",
    "share_payload",
    "resolve_payload",
    "release_payload",
    "payload_executor",
    "PoolTaskEvent",
    "PoolReport",
    "run_supervised_tasks",
    "install_worker_faults",
    "clear_worker_faults",
]


def effective_jobs(
    n_jobs: Optional[int],
    num_tasks: int,
    error: Type[Exception] = ValueError,
) -> int:
    """Worker-process count for ``num_tasks`` independent units of work.

    Returns 1 — meaning *run serially, create no pool* — when there is at
    most one task or at most one CPU; otherwise the requested ``n_jobs``
    clamped to ``min(num_tasks, cpu_count)``.
    """
    if num_tasks <= 1:
        return 1
    cpus = os.cpu_count() or 1
    if n_jobs is None:
        n_jobs = cpus
    if n_jobs < 1:
        raise error("n_jobs must be at least 1 (or None for auto)")
    return min(int(n_jobs), num_tasks, cpus)


# ----------------------------------------------------------------------
# shared payloads
# ----------------------------------------------------------------------

#: Parent-side (and, after fork, worker-side) payload registry.  Fork
#: children see it through copy-on-write inheritance; spawn workers get it
#: refilled by the :func:`payload_executor` initializer.
_PAYLOADS: dict[int, Any] = {}
_TOKEN_COUNTER = itertools.count(1)


@dataclass(frozen=True)
class PayloadRef:
    """Cheap, picklable handle to an object registered with :func:`share_payload`.

    The reference is just an integer token; passing it through a pool task
    costs a few bytes regardless of how large the payload is.
    """

    token: int


def share_payload(obj: Any) -> PayloadRef:
    """Register ``obj`` for zero-copy access from pool workers.

    Returns a :class:`PayloadRef` to ship in task arguments.  Call
    :func:`release_payload` when the pool work is done so the parent does
    not pin the object for the rest of the process lifetime.
    """
    token = next(_TOKEN_COUNTER)
    _PAYLOADS[token] = obj
    return PayloadRef(token)


def _read_only_view(obj: Any) -> Any:
    """A non-writable alias of ``obj``'s arrays (recursing into containers).

    ndarrays are returned as ``writeable=False`` views sharing the original
    buffer — no copy, but any in-place write in a worker raises instead of
    silently corrupting copy-on-write pages (fork) or diverging per-worker
    state (spawn).  Tuples, lists and dicts are rebuilt around converted
    elements; anything else passes through unchanged (mutating an arbitrary
    payload object is caught statically by reprolint's pool-safety rule).
    """
    if isinstance(obj, np.ndarray):
        view = obj.view()
        view.setflags(write=False)
        return view
    if isinstance(obj, tuple):
        return tuple(_read_only_view(item) for item in obj)
    if isinstance(obj, list):
        return [_read_only_view(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _read_only_view(value) for key, value in obj.items()}
    return obj


def resolve_payload(ref: Any) -> Any:
    """Return the object behind ``ref``; non-references pass through unchanged.

    Passing values through makes call sites polymorphic: a helper that
    accepts either a payload reference or the object itself can resolve
    unconditionally.

    Resolved payloads are handed out as **read-only views**: any ndarray in
    the payload (including inside tuples/lists/dicts) comes back with
    ``writeable=False``, so a worker that tries to mutate shared state
    fails loudly with ``ValueError`` instead of silently breaking the
    serial==parallel record invariant.  The parent's original arrays stay
    writable.  Workers that need scratch space must copy first
    (``np.array(view)`` / ``view.copy()``).
    """
    if not isinstance(ref, PayloadRef):
        return ref
    try:
        payload = _PAYLOADS[ref.token]
    except KeyError:
        raise RuntimeError(
            f"payload {ref.token} is not registered in this process; "
            "create the pool with payload_executor() after share_payload(), "
            "or resolve in the parent process"
        ) from None
    return _read_only_view(payload)


def release_payload(ref: PayloadRef) -> None:
    """Drop a shared payload from the registry (idempotent)."""
    _PAYLOADS.pop(ref.token, None)


def _payload_initializer(payloads: dict[int, Any]) -> None:
    """Spawn-mode worker initializer: refill the registry once per worker."""
    _PAYLOADS.update(payloads)


def payload_executor(max_workers: int) -> ProcessPoolExecutor:
    """A :class:`~concurrent.futures.ProcessPoolExecutor` that sees shared payloads.

    On platforms whose default start method is ``fork`` the workers inherit
    the registry through copy-on-write memory and nothing is pickled.
    Elsewhere the current registry is shipped to each worker exactly once
    via the pool initializer — the same per-worker (not per-task) cost the
    engines paid with their bespoke initializers before this helper
    existed.
    """
    method = multiprocessing.get_start_method(allow_none=False)
    if method == "fork":
        context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=max_workers, mp_context=context)
    return ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_payload_initializer,
        initargs=(dict(_PAYLOADS),),
    )


# ----------------------------------------------------------------------
# worker fault injection (chaos testing)
# ----------------------------------------------------------------------

#: Reserved payload slot for the installed worker fault plan.  Real payload
#: tokens start at 1 (see ``_TOKEN_COUNTER``), so slot 0 can never collide,
#: and riding in the payload registry means the plan reaches workers through
#: the exact same fork/spawn channel as every other payload.
_WORKER_FAULTS_TOKEN = 0


def install_worker_faults(plan: Any) -> None:
    """Install a :class:`repro.resilience.WorkerFaultPlan` for pool workers.

    The plan is duck-typed: anything with a ``fires(task_index,
    round_number)`` method returning ``"crash"``, ``"hang"`` or ``None``
    (and a ``hang_seconds`` attribute) works.  Faults only ever fire inside
    pool worker processes — the parent running a task serially is immune,
    so the serial re-execution safety net always succeeds.

    Install *before* creating pools; pair with :func:`clear_worker_faults`.
    """
    _PAYLOADS[_WORKER_FAULTS_TOKEN] = plan


def clear_worker_faults() -> None:
    """Remove any installed worker fault plan (idempotent)."""
    _PAYLOADS.pop(_WORKER_FAULTS_TOKEN, None)


def _maybe_worker_fault(task_index: int, round_number: int) -> None:
    """Fire the installed fault for this task, if any — workers only."""
    plan = _PAYLOADS.get(_WORKER_FAULTS_TOKEN)
    if plan is None:
        return
    if multiprocessing.parent_process() is None:
        return  # parent process: serial fallback must never fault
    action = plan.fires(task_index, round_number)
    if action == "crash":
        os._exit(70)  # hard kill, like an OOM-killed or segfaulted worker
    elif action == "hang":
        time.sleep(float(getattr(plan, "hang_seconds", 30.0)))


@dataclass(frozen=True)
class _TaskEnvelope:
    """A task result plus the telemetry recorded while computing it.

    Workers wrap their return value in an envelope whenever the parent ran
    with telemetry enabled; the parent unwraps it, re-parents the shipped
    spans under the submitting span and folds the metrics into its own
    registry.  Task *results* never contain telemetry — the envelope is
    pool-transport only, so serial and parallel runs keep producing
    identical records.
    """

    result: Any
    spans: tuple
    metrics: dict


#: Set after the first telemetry-carrying task so fork-inherited parent
#: spans/metrics are dropped exactly once per worker process.
_WORKER_TELEMETRY_PRIMED = False


def _prime_worker_telemetry() -> None:
    global _WORKER_TELEMETRY_PRIMED
    if not _WORKER_TELEMETRY_PRIMED:
        telemetry.enable()
        telemetry.reset_telemetry()
        _WORKER_TELEMETRY_PRIMED = True


def _run_supervised_task(
    worker: Callable[..., Any],
    task_index: int,
    round_number: int,
    args: tuple,
    with_telemetry: bool = False,
) -> Any:
    """Module-level pool target: apply injected faults, then run the task."""
    _maybe_worker_fault(task_index, round_number)
    if not with_telemetry:
        return worker(*args)
    _prime_worker_telemetry()
    with telemetry.capture() as records:
        with telemetry.span("pool.task", task_index=task_index, round=round_number):
            result = worker(*args)
    return _TaskEnvelope(result=result, spans=tuple(records), metrics=telemetry.drain_metrics())


# ----------------------------------------------------------------------
# supervised pool execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PoolTaskEvent:
    """One pool-level incident during :func:`run_supervised_tasks`.

    ``kind`` is ``"broken-pool"`` (a worker died), ``"timeout"`` (a task
    exceeded the per-task allowance), ``"resubmitted"`` (the affected tasks
    went back to a fresh pool) or ``"serial-rerun"`` (the parent re-ran
    them itself).
    """

    kind: str
    round_number: int
    task_indices: tuple[int, ...]
    detail: str = ""


@dataclass(frozen=True)
class PoolReport:
    """Out-of-band account of what the pool layer had to work around.

    Pool incidents are *infrastructure* degradation, not properties of the
    computed records — a serial run has no pool and must produce identical
    records — so they are reported here (and as ``RuntimeWarning``s) rather
    than written into task results.  ``remote_spans`` counts the telemetry
    span records shipped back from worker processes and re-parented into
    the parent's trace (0 when telemetry was disabled or the run was
    serial).
    """

    events: tuple[PoolTaskEvent, ...] = field(default_factory=tuple)
    remote_spans: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.events)

    def describe(self) -> str:
        if not self.events:
            return "pool: clean run"
        return "; ".join(
            f"{event.kind} (round {event.round_number}, "
            f"tasks {list(event.task_indices)}): {event.detail}"
            for event in self.events
        )


#: Seconds the executor gets to reap its terminated workers.
_REAP_SECONDS = 5.0


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a broken, hung or failed pool without waiting on its tasks.

    ``shutdown`` drops the executor's process table and its manager
    thread, so both are read first.  Each worker is terminated; the
    manager thread sees them die, reaps them and exits, and waiting for it
    means no worker outlives the call or holds interpreter exit.  Joining
    the workers here as well would race that thread for their exit
    status.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    if manager is not None:
        manager.join(_REAP_SECONDS)


def run_supervised_tasks(
    worker: Callable[..., Any],
    task_args: Sequence[tuple],
    *,
    jobs: int,
    timeout: Optional[float] = None,
    max_resubmissions: int = 1,
) -> tuple[list, PoolReport]:
    """Run independent tasks with pool-failure supervision.

    ``worker(*task_args[i])`` runs for every ``i`` — in the parent when
    ``jobs <= 1``, otherwise on a :func:`payload_executor` pool.  The pool
    path survives infrastructure failures that would normally abort the
    whole batch:

    * a task exceeding ``timeout`` seconds (``None`` disables the check),
    * a worker process dying (``BrokenProcessPool``), also while tasks are
      still being submitted.

    Affected tasks are resubmitted to a fresh pool up to
    ``max_resubmissions`` times; whatever still fails is re-executed
    *serially in the parent*, which cannot crash-fault (injected worker
    faults never fire outside pool workers) and has no timeout.  Exceptions
    raised by the task function itself propagate unchanged, exactly as in a
    serial run.

    Returns ``(results, report)`` with results in task order.  Pool-level
    incidents are recorded on the :class:`PoolReport` and emitted as
    ``RuntimeWarning``s; they are deliberately kept out of the task results
    so serial and parallel runs produce identical records.

    When telemetry is enabled in the parent, workers record their spans
    per task and ship them back inside a :class:`_TaskEnvelope`; this
    function re-parents the remote roots under the surrounding
    ``pool.run`` span, stamps each ``pool.task`` root with its measured
    queue wait, and feeds the ``pool.queue_wait_seconds`` /
    ``pool.execute_seconds`` histograms — so one exported trace shows
    queue-wait, per-worker execution and the parent timeline together.
    """
    task_args = [tuple(args) for args in task_args]
    results: list = [None] * len(task_args)
    if jobs <= 1 or len(task_args) <= 1:
        for index, args in enumerate(task_args):
            results[index] = worker(*args)
        return results, PoolReport()

    with_telemetry = telemetry.is_enabled()
    remote_spans = 0
    submit_walls: dict[int, float] = {}

    def _unwrap(index: int, value: Any, parent_id: Optional[str]) -> Any:
        nonlocal remote_spans
        if not isinstance(value, _TaskEnvelope):
            return value
        remote_spans += len(value.spans)
        roots = telemetry.attach_spans(value.spans, parent_id=parent_id)
        telemetry.merge_metrics(value.metrics)
        submitted = submit_walls.get(index)
        for root in roots:
            if root.name != "pool.task":
                continue
            if submitted is not None:
                queue_wait = max(0.0, root.start_wall - submitted)
                root.attributes["queue_wait_seconds"] = queue_wait
                telemetry.histogram_observe("pool.queue_wait_seconds", queue_wait)
            telemetry.histogram_observe("pool.execute_seconds", root.duration)
        return value.result

    events: list[PoolTaskEvent] = []
    pending = list(range(len(task_args)))
    with telemetry.span("pool.run", tasks=len(task_args), jobs=jobs) as pool_span:
        pool_span_id = getattr(pool_span, "span_id", None)
        for round_number in range(max_resubmissions + 1):
            if not pending:
                break
            if round_number > 0:
                events.append(
                    PoolTaskEvent(
                        kind="resubmitted",
                        round_number=round_number,
                        task_indices=tuple(pending),
                        detail=f"fresh pool, attempt {round_number + 1}",
                    )
                )
            pool = payload_executor(min(jobs, len(pending)))
            clean = False
            try:
                futures = {}
                unsubmitted: list[int] = []
                for position, index in enumerate(pending):
                    if with_telemetry:
                        submit_walls[index] = telemetry.clock()
                    try:
                        futures[index] = pool.submit(
                            _run_supervised_task,
                            worker,
                            index,
                            round_number,
                            task_args[index],
                            with_telemetry,
                        )
                    except BrokenProcessPool as exc:
                        # A worker died before every task was submitted: the
                        # rest fail here and take the resubmit/serial path.
                        unsubmitted = pending[position:]
                        events.append(
                            PoolTaskEvent(
                                kind="broken-pool",
                                round_number=round_number,
                                task_indices=tuple(unsubmitted),
                                detail=str(exc) or "worker process died",
                            )
                        )
                        break
                failed: list[int] = []
                pool_broken = False
                for index in futures:
                    if pool_broken:
                        # After a pool break every unfinished future fails fast;
                        # harvest the ones that completed before the crash.
                        future = futures[index]
                        if future.done() and future.exception() is None:
                            results[index] = _unwrap(index, future.result(), pool_span_id)
                        else:
                            failed.append(index)
                        continue
                    try:
                        results[index] = _unwrap(
                            index, futures[index].result(timeout=timeout), pool_span_id
                        )
                    except _FuturesTimeout:
                        failed.append(index)
                        events.append(
                            PoolTaskEvent(
                                kind="timeout",
                                round_number=round_number,
                                task_indices=(index,),
                                detail=f"task exceeded {timeout}s",
                            )
                        )
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        failed.append(index)
                        events.append(
                            PoolTaskEvent(
                                kind="broken-pool",
                                round_number=round_number,
                                task_indices=(index,),
                                detail=str(exc) or "worker process died",
                            )
                        )
                failed.extend(unsubmitted)
                clean = not (failed or pool_broken)
            finally:
                # A clean round lets its workers exit; a broken, hung or
                # raising one is torn down without waiting on its tasks.
                if clean:
                    pool.shutdown(wait=True)
                else:
                    _abandon_pool(pool)
            pending = failed

        if pending:
            events.append(
                PoolTaskEvent(
                    kind="serial-rerun",
                    round_number=max_resubmissions + 1,
                    task_indices=tuple(pending),
                    detail="re-executed in the parent process",
                )
            )
            for index in pending:
                # Parent-side re-execution: spans record inline under the
                # pool.run span, no envelope needed.
                results[index] = worker(*task_args[index])
        pool_span.set_attributes(remote_spans=remote_spans)

    report = PoolReport(events=tuple(events), remote_spans=remote_spans)
    if report.degraded:
        warnings.warn(
            f"pool degradation: {report.describe()}",
            RuntimeWarning,
            stacklevel=2,
        )
    return results, report
