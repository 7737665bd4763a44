"""Seeded, composable fault injection for the measurement and pool layers.

A :class:`FaultPlan` is a seed plus an ordered tuple of fault events.  The
measurement events rewrite a :class:`~repro.measurement.snmp.PollMatrix`
*after* the clean schedule ran — exactly where the real failure modes live
(the UDP datagram is lost, the router reboots, the 32-bit counter wraps,
the collector's clock drifts) — so the same seeded plan reproduces the same
corrupted poll matrix on every run.  The optional :class:`WorkerFaultPlan`
injects crash/hang behaviour into ``repro.parallel`` pool workers.

The measurement layer *duck-types* plans (it calls ``apply_to_polls`` /
``for_poller`` and never imports this module), so resilience stays a leaf
package and the import graph stays acyclic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # typing only; runtime stays import-light
    from repro.measurement.snmp import PollMatrix

__all__ = [
    "FaultPlan",
    "PollLossBurst",
    "CounterReset",
    "Counter32Wrap",
    "ClockSkew",
    "StuckCounter",
    "CollectorOutage",
    "WorkerFaultPlan",
]


def _row_slice(start_round: int, num_rounds: int, total_rounds: int) -> slice:
    start = max(0, min(int(start_round), total_rounds))
    stop = max(start, min(start + int(num_rounds), total_rounds))
    return slice(start, stop)


def _columns(
    polls: "PollMatrix", objects: Optional[tuple[str, ...]]
) -> np.ndarray:
    """Column indices for ``objects``; ``None`` means every column.

    Names the poll matrix does not track are silently skipped — a collector
    splits objects across pollers, so a plan naming all faulty links applies
    cleanly to each poller's subset.
    """
    if objects is None:
        return np.arange(polls.num_objects)
    present = {name: col for col, name in enumerate(polls.object_names)}
    return np.array(
        [present[name] for name in objects if name in present], dtype=int
    )


class _Arrays:
    """Mutable scratch copies of a poll matrix's arrays while events apply."""

    def __init__(self, polls: "PollMatrix") -> None:
        self.source = polls
        self.response_times = polls.response_times.copy()
        self.counters = polls.counters.copy()
        self.lost = polls.lost.copy()
        self.counter_bits = polls.counter_bits

    def finish(self) -> "PollMatrix":
        return dataclasses.replace(
            self.source,
            response_times=self.response_times,
            counters=self.counters,
            lost=self.lost,
            counter_bits=self.counter_bits,
        )


@dataclass(frozen=True)
class PollLossBurst:
    """A burst of UDP poll loss: rounds ``[start, start + num)`` go dark.

    ``fraction`` < 1 loses each (round, object) poll independently with that
    probability, drawn from the plan's seeded generator; ``objects = None``
    means every object the poller tracks.
    """

    start_round: int
    num_rounds: int
    fraction: float = 1.0
    objects: Optional[tuple[str, ...]] = None

    def apply(self, arrays: _Arrays, rng: np.random.Generator) -> None:
        rows = _row_slice(self.start_round, self.num_rounds, arrays.lost.shape[0])
        cols = _columns(arrays.source, self.objects)
        if cols.size == 0 or rows.start == rows.stop:
            return
        if self.fraction >= 1.0:
            arrays.lost[rows, cols] = True
        else:
            shape = (rows.stop - rows.start, cols.size)
            arrays.lost[rows, cols] |= rng.random(shape) < self.fraction


@dataclass(frozen=True)
class CounterReset:
    """A router reboot: counters restart from zero at ``round_index``.

    Every later round keeps its true increments, shifted down — exactly what
    a reloaded line card reports.
    """

    round_index: int
    objects: Optional[tuple[str, ...]] = None

    def apply(self, arrays: _Arrays, rng: np.random.Generator) -> None:
        total = arrays.counters.shape[0]
        row = max(0, min(int(self.round_index), total - 1))
        cols = _columns(arrays.source, self.objects)
        if cols.size == 0:
            return
        # uint64 subtraction wraps, reproducing the reboot-to-zero restart;
        # a narrower counter wraps in its own space.
        restarted = arrays.counters[row:, cols] - arrays.counters[row, cols]
        if arrays.counter_bits < 64:
            restarted %= np.uint64(2**arrays.counter_bits)
        arrays.counters[row:, cols] = restarted


@dataclass(frozen=True)
class Counter32Wrap:
    """Downgrade the poll matrix to 32-bit counters (legacy ifInOctets).

    A poll matrix has one counter width, so the fault downgrades every
    column: counter values are reduced modulo 2**32 and the matrix is tagged
    ``counter_bits = 32`` so :func:`~repro.measurement.snmp.rates_from_poll_matrix`
    applies wrap-aware deltas.  Under a distributed collector every
    poller's matrix is downgraded.
    """

    def apply(self, arrays: _Arrays, rng: np.random.Generator) -> None:
        arrays.counters %= np.uint64(2**32)
        arrays.counter_bits = 32


@dataclass(frozen=True)
class ClockSkew:
    """The poller's clock drifts by ``offset_seconds`` from ``start_round`` on."""

    offset_seconds: float
    start_round: int = 0
    objects: Optional[tuple[str, ...]] = None

    def apply(self, arrays: _Arrays, rng: np.random.Generator) -> None:
        total = arrays.response_times.shape[0]
        row = max(0, min(int(self.start_round), total))
        cols = _columns(arrays.source, self.objects)
        if cols.size == 0:
            return
        arrays.response_times[row:, cols] += float(self.offset_seconds)


@dataclass(frozen=True)
class StuckCounter:
    """A counter freezes at its last value for ``num_rounds`` rounds.

    During the window deltas read as zero (phantom silence); the first round
    after the window reports the accumulated catch-up burst.
    """

    start_round: int
    num_rounds: int
    objects: Optional[tuple[str, ...]] = None

    def apply(self, arrays: _Arrays, rng: np.random.Generator) -> None:
        rows = _row_slice(self.start_round, self.num_rounds, arrays.counters.shape[0])
        cols = _columns(arrays.source, self.objects)
        if cols.size == 0 or rows.start == rows.stop:
            return
        arrays.counters[rows, cols] = arrays.counters[rows.start, cols]


@dataclass(frozen=True)
class CollectorOutage:
    """One poller of a :class:`~repro.measurement.collector.DistributedCollector`
    goes down for ``num_rounds`` rounds: every object it polls reads lost.

    Resolved by :meth:`FaultPlan.for_poller` into a full
    :class:`PollLossBurst` on the affected poller; inert when a plan is
    applied to a standalone poll matrix.
    """

    poller_index: int
    start_round: int
    num_rounds: int

    def apply(self, arrays: _Arrays, rng: np.random.Generator) -> None:
        return  # only meaningful through FaultPlan.for_poller


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Deterministic crash/hang behaviour for pool workers.

    ``crash_tasks`` / ``hang_tasks`` are task indices; a listed task crashes
    (``os._exit``) or hangs (``sleep(hang_seconds)``) while the submission
    round number is below ``crash_rounds`` / ``hang_rounds``.  With the
    default of 1 the fault fires only on the first attempt, so bounded
    resubmission recovers; raise the round counts to force the serial
    re-execution path.  Faults never fire in the parent process.
    """

    crash_tasks: tuple[int, ...] = ()
    hang_tasks: tuple[int, ...] = ()
    hang_seconds: float = 30.0
    crash_rounds: int = 1
    hang_rounds: int = 1

    def fires(self, task_index: int, round_number: int) -> Optional[str]:
        if task_index in self.crash_tasks and round_number < self.crash_rounds:
            return "crash"
        if task_index in self.hang_tasks and round_number < self.hang_rounds:
            return "hang"
        return None


MeasurementFault = Union[
    PollLossBurst, CounterReset, Counter32Wrap, ClockSkew, StuckCounter,
    CollectorOutage,
]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered set of faults, reproducible on every run.

    Attributes
    ----------
    seed:
        Seeds the generator used by probabilistic events; combined with the
        per-application ``salt`` (the collector passes each poller's index)
        so distinct pollers draw distinct but reproducible streams.
    events:
        Measurement fault events, applied in order.
    worker:
        Optional :class:`WorkerFaultPlan` for the pool layer; install it
        with :func:`repro.parallel.install_worker_faults`.
    """

    seed: int = 0
    events: tuple[MeasurementFault, ...] = field(default_factory=tuple)
    worker: Optional[WorkerFaultPlan] = None

    def apply_to_polls(self, polls: "PollMatrix", salt: int = 0) -> "PollMatrix":
        """Return ``polls`` with every measurement event applied in order."""
        if not self.events:
            return polls
        rng = np.random.default_rng((self.seed, salt))
        arrays = _Arrays(polls)
        for event in self.events:
            event.apply(arrays, rng)
        return arrays.finish()

    def for_poller(self, poller_index: int) -> "FaultPlan":
        """The plan as seen by one poller of a distributed collector.

        :class:`CollectorOutage` events for this poller become full
        :class:`PollLossBurst` events; outages of other pollers are dropped.
        """
        events: list[MeasurementFault] = []
        for event in self.events:
            if isinstance(event, CollectorOutage):
                if event.poller_index == poller_index:
                    events.append(
                        PollLossBurst(
                            start_round=event.start_round,
                            num_rounds=event.num_rounds,
                        )
                    )
            else:
                events.append(event)
        return dataclasses.replace(self, events=tuple(events))

    def describe(self) -> str:
        names = ", ".join(type(event).__name__ for event in self.events) or "no events"
        suffix = " + worker faults" if self.worker is not None else ""
        return f"FaultPlan(seed={self.seed}: {names}{suffix})"


def fault_plan(
    *events: MeasurementFault,
    seed: int = 0,
    worker: Optional[WorkerFaultPlan] = None,
) -> FaultPlan:
    """Convenience constructor: ``fault_plan(PollLossBurst(...), seed=3)``."""
    return FaultPlan(seed=seed, events=tuple(events), worker=worker)
