"""Poll-round streaming primitives.

The batch pipeline hands :func:`~repro.measurement.snmp.rates_from_poll_matrix`
a complete ``(rounds, objects)`` poll matrix and lets it interpolate over
the holes with full hindsight.  A streaming consumer has neither the whole
matrix nor hindsight: polls arrive one round at a time, possibly from
several pollers, and every hole must be handled *causally* — with only the
past.  This module provides the two primitives the
:class:`~repro.streaming.daemon.StreamingEstimator` builds on:

* :class:`PollStream` — a round-by-round view over one or more
  :class:`~repro.measurement.snmp.PollMatrix` objects sharing a schedule
  (e.g. the per-poller edge-counter matrices of a
  :class:`~repro.measurement.collector.DistributedCollector`), held as one
  read-only ``(rounds, objects)`` array each for response times, counters
  and loss, with per-object counter widths (derived once into
  :class:`~repro.measurement.snmp.CounterWidths`) so Counter32 pollers can
  coexist with Counter64 ones;
* :class:`CounterTracker` — the causal counterpart of
  ``rates_from_poll_matrix``: O(objects) state that turns consecutive
  polls into interval rates through the same
  :func:`~repro.measurement.snmp.classify_counter_deltas`, but *holds the
  last derived rate* over holes instead of interpolating (the future
  samples interpolation needs do not exist yet).  On a clean schedule the
  two derivations agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import StreamingError
from repro.measurement.collector import edge_counter_names
from repro.measurement.snmp import CounterWidths, PollMatrix, classify_counter_deltas

__all__ = ["PollRound", "PollStream", "CounterTracker"]


@dataclass(frozen=True)
class PollRound:
    """One scheduled poll round across every streamed object.

    Arrays are read-only row views of the owning :class:`PollStream`'s
    arrays, aligned with its ``object_names``; ``counters`` entries where
    ``lost`` is true are undefined.
    """

    index: int
    scheduled_time: float
    response_times: np.ndarray
    counters: np.ndarray
    lost: np.ndarray


class PollStream:
    """Round-by-round view over poll matrices sharing one schedule.

    The matrices' columns are copied once into three read-only
    ``(rounds, objects)`` arrays, :attr:`response_times`, :attr:`counters`
    and :attr:`lost`, so :meth:`round` hands out row views; :attr:`widths`
    holds the per-object counter widths the tracker classifies them with.

    Parameters
    ----------
    matrices:
        One or more :class:`~repro.measurement.snmp.PollMatrix` objects
        with identical ``scheduled_times`` (what the pollers of one
        collector produce).  Object name sets must be disjoint; columns are
        concatenated in matrix order.  :meth:`from_collector` streams a
        collector's edge counters in their counter order instead, which is
        what the streaming daemon reads.
    """

    def __init__(self, matrices: Sequence[PollMatrix]) -> None:
        if not matrices:
            raise StreamingError("a poll stream needs at least one poll matrix")
        names = tuple(name for matrix in matrices for name in matrix.object_names)
        position = dict(zip(names, range(len(names))))
        columns = [
            np.array([position[name] for name in matrix.object_names], dtype=np.intp)
            for matrix in matrices
        ]
        if not np.all(np.bincount(np.concatenate(columns), minlength=len(names)) == 1):
            raise StreamingError("duplicate object names across poll matrices")
        self._fill(matrices, names, columns)

    @classmethod
    def from_collector(cls, collector, series, start_time: Optional[float] = None) -> "PollStream":
        """Stream the faulted edge-counter poll matrices of a distributed collector.

        Runs every edge poller's schedule over ``series``
        (:meth:`~repro.measurement.collector.DistributedCollector.poll_edge_matrices`,
        fault plans applied exactly as in ``collect``) and puts the columns
        in the order of :func:`~repro.measurement.collector.edge_counter_names`:
        the links, then one ingress counter per origin and one egress
        counter per destination.  Each poller's columns are its strided
        slice of that order (``collector.edge_assignments``), checked once
        by comparing its object names with the slice's names.
        """
        matrices = collector.poll_edge_matrices(series, start_time=start_time)
        names = edge_counter_names(collector.routing)
        for matrix, columns in zip(matrices, collector.edge_assignments):
            if matrix.object_names != names[columns]:
                raise StreamingError("a poller's objects are not its slice of the counters")
        stream = cls.__new__(cls)
        stream._fill(matrices, names, collector.edge_assignments)
        return stream

    def _fill(
        self,
        matrices: Sequence[PollMatrix],
        names: tuple[str, ...],
        columns: Sequence[Union[np.ndarray, slice]],
    ) -> None:
        """Copy each matrix to its ``columns`` of ``names``, which they partition."""
        reference = matrices[0].scheduled_times
        for matrix in matrices:
            if matrix.scheduled_times.shape != reference.shape or not np.array_equal(
                matrix.scheduled_times, reference
            ):
                raise StreamingError("poll matrices follow different schedules")
        shape = (len(reference), len(names))
        self.response_times = np.empty(shape)
        self.counters = np.empty(shape, dtype=np.uint64)
        self.lost = np.empty(shape, dtype=bool)
        #: Per-object counter width (pollers may mix Counter32 and Counter64).
        self.object_bits = np.empty(len(names), dtype=np.uint64)
        for matrix, cols in zip(matrices, columns):
            self.response_times[:, cols] = matrix.response_times
            self.counters[:, cols] = matrix.counters
            self.lost[:, cols] = matrix.lost
            self.object_bits[cols] = matrix.counter_bits
        for array in (self.response_times, self.counters, self.lost, self.object_bits):
            array.setflags(write=False)
        self.widths = CounterWidths(self.object_bits)
        self.object_names: tuple[str, ...] = names
        self.scheduled_times: np.ndarray = reference

    # ------------------------------------------------------------------
    @property
    def num_rounds(self) -> int:
        """Number of poll rounds (intervals + 1)."""
        return len(self.scheduled_times)

    @property
    def num_objects(self) -> int:
        """Number of streamed objects across all matrices."""
        return len(self.object_names)

    def round(self, index: int) -> PollRound:
        """Poll round ``index``: a row view of every array."""
        if not 0 <= index < self.num_rounds:
            raise StreamingError(
                f"round index {index} out of range for {self.num_rounds} rounds"
            )
        return PollRound(
            index=index,
            scheduled_time=float(self.scheduled_times[index]),
            response_times=self.response_times[index],
            counters=self.counters[index],
            lost=self.lost[index],
        )

    def rounds(self, start: int = 0):
        """Iterate rounds from ``start`` (used to resume after a restore)."""
        for index in range(start, self.num_rounds):
            yield self.round(index)


class CounterTracker:
    """Causal per-object rate derivation over a stream of poll rounds.

    Keeps the last *answered* poll of every object (counter value and
    response time) plus the last successfully derived rate.  Each call to
    :meth:`observe` classifies the new poll with the batch path's
    :func:`~repro.measurement.snmp.classify_counter_deltas` (per-object
    counter widths, :attr:`PollStream.widths`) and returns the current rate
    vector with a freshness mask.  Objects without a fresh sample keep their held rate (zero until
    first derivation).

    Because the last answered poll is retained across lost rounds, the
    first poll after a loss burst yields the *gap-average* rate (the
    counter delta over the whole gap), which is what a production
    collector reports after an outage.

    All state is four flat arrays, which :meth:`observe` updates in place
    under masks, and four counts, so the tracker checkpoints exactly and
    cheaply (see :mod:`repro.streaming.checkpoint`).
    """

    def __init__(self, num_objects: int) -> None:
        if num_objects < 1:
            raise StreamingError("tracker needs at least one object")
        self.num_objects = int(num_objects)
        self.have_last = np.zeros(num_objects, dtype=bool)
        self.last_counter = np.zeros(num_objects, dtype=np.uint64)
        self.last_response = np.zeros(num_objects, dtype=float)
        self.rate = np.zeros(num_objects, dtype=float)
        #: Cumulative classification counts (mirrors RateDiagnostics).
        self.wrap_samples = 0
        self.reset_samples = 0
        self.degenerate_samples = 0
        self.lost_samples = 0

    def observe(
        self,
        response_times: np.ndarray,
        counters: np.ndarray,
        lost: np.ndarray,
        widths: CounterWidths,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold one poll round into the tracker.

        ``widths`` holds one counter width per object (a stream's
        :attr:`PollStream.widths`).  Returns ``(rates, fresh)``: the
        per-object rate vector (held values where no fresh sample exists)
        and the boolean mask of objects whose rate was derived from this
        round's poll.
        """
        shape = (self.num_objects,)
        for name, array in (
            ("response_times", response_times),
            ("counters", counters),
            ("lost", lost),
            ("counter widths", widths.bits),
        ):
            if array.shape != shape:
                raise StreamingError(
                    f"{name} has shape {array.shape}, expected {shape}"
                )
        answered = ~lost
        rates, fresh, degenerate, reset, wrapped = classify_counter_deltas(
            self.last_counter,
            counters,
            response_times - self.last_response,
            answered & self.have_last,
            widths,
        )
        np.copyto(self.rate, rates, where=fresh)
        # Re-sync on every answered poll — including after a reset, so the
        # next interval is derived from the rebooted counter's new baseline.
        np.copyto(self.last_counter, counters, where=answered)
        np.copyto(self.last_response, response_times, where=answered)
        self.have_last |= answered

        self.lost_samples += int(np.count_nonzero(lost))
        self.degenerate_samples += int(np.count_nonzero(degenerate))
        self.reset_samples += int(np.count_nonzero(reset))
        self.wrap_samples += int(np.count_nonzero(wrapped))
        return self.rate.copy(), fresh

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """The tracker's full state as named arrays (for checkpointing)."""
        return {
            "tracker_have_last": self.have_last,
            "tracker_last_counter": self.last_counter,
            "tracker_last_response": self.last_response,
            "tracker_rate": self.rate,
            "tracker_counts": np.array(
                [
                    self.wrap_samples,
                    self.reset_samples,
                    self.degenerate_samples,
                    self.lost_samples,
                ],
                dtype=np.int64,
            ),
        }

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore state previously produced by :meth:`state_arrays`.

        Each array must have exactly the dtype and length
        :meth:`state_arrays` gives it; any other raises
        :class:`~repro.errors.StreamingError` naming the array.
        """
        for name, expected in self.state_arrays().items():
            array = arrays[name]
            if array.dtype != expected.dtype or array.shape != expected.shape:
                raise StreamingError(
                    f"checkpointed {name} is {array.dtype} of shape {array.shape}, "
                    f"expected {expected.dtype} of shape {expected.shape}"
                )
        self.have_last = arrays["tracker_have_last"].copy()
        self.last_counter = arrays["tracker_last_counter"].copy()
        self.last_response = arrays["tracker_last_response"].copy()
        self.rate = arrays["tracker_rate"].copy()
        counts = arrays["tracker_counts"]
        self.wrap_samples = int(counts[0])
        self.reset_samples = int(counts[1])
        self.degenerate_samples = int(counts[2])
        self.lost_samples = int(counts[3])
