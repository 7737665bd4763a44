"""Distributed measurement collection.

The paper's infrastructure uses a geographically distributed set of pollers,
each responsible for the routers of its area and acting as a backup for its
neighbours, with results shipped to a central database over TCP
(Section 5.1.2).  :class:`DistributedCollector` models that architecture
end-to-end: it assigns objects to regional
:class:`~repro.measurement.snmp.SNMPPoller` instances, drives them from a
traffic-matrix series via a routing matrix (so the polled counters see the
true LSP/link rates), derives interval rates and keeps them as one
object-major ``(objects, K)`` array.  The whole pipeline is array-valued:
one ``(K, objects)`` rate matrix drives all counters, and each poller's
rates land at its assigned rows.

Timestamp convention: the rate of interval ``k`` is derived from the polls
that open and close it, at ``start + k * dt`` and ``start + (k+1) * dt``.
:meth:`DistributedCollector.measured_traffic_series` stamps snapshot ``k``
with the start of its interval, so it carries the same timestamp as
snapshot ``k`` of the driving :class:`~repro.traffic.matrix.TrafficMatrixSeries`.

The collector is what turns a *demand process* into the *measured LSP
matrix* and *measured link loads* the estimation benchmarks start from.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import MeasurementError
from repro.measurement.snmp import (
    PollMatrix,
    RateDiagnostics,
    SNMPPoller,
    rates_from_poll_matrix,
)
from repro.routing.routing_matrix import RoutingMatrix
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSeries

__all__ = ["DistributedCollector", "counter_names"]


def counter_names(routing: RoutingMatrix) -> tuple[str, ...]:
    """SNMP object names of the counters a collector polls on ``routing``.

    One counter per LSP, named ``lsp:o->d``, in pair order, then one per
    link under its link name (paper Section 5.1.2).  The collector, the
    poll stream and the streaming daemon all take the counter order from
    here, so it is fixed by the routing's pair and link orderings.  The
    names are built once per routing matrix and cached with its other
    lazily derived state, so every caller on one matrix shares one tuple.
    """
    if routing._counter_names is None:
        lsps = tuple(f"lsp:{pair.origin}->{pair.destination}" for pair in routing.pairs)
        routing._counter_names = lsps + tuple(routing.link_names)
    return routing._counter_names


class DistributedCollector:
    """A set of regional pollers feeding one central rate store.

    Parameters
    ----------
    routing:
        Routing matrix of the measured network; its pair and link orderings
        define the LSP and link objects to poll.
    num_pollers:
        Number of regional pollers to spread the objects over.
    interval_seconds, jitter_std_seconds, loss_probability:
        Forwarded to each :class:`~repro.measurement.snmp.SNMPPoller`.
    seed:
        Base seed; each poller gets a distinct derived seed.
    max_interpolated_fraction:
        Forwarded to :func:`~repro.measurement.snmp.rates_from_poll_matrix`:
        raise when more than this fraction of a poller's samples had to be
        interpolated (the default ``1.0`` never raises).
    counter_bits:
        Counter width forwarded to every poller (64 for Counter64, 32 for
        legacy Counter32).
    fault_plan:
        Optional seeded fault plan (duck-typed; see
        :class:`repro.resilience.FaultPlan`).  Each poller receives the
        plan resolved for its own index (``plan.for_poller(idx)``) with its
        index as fault salt, so collector outages hit the right poller and
        probabilistic faults draw reproducible per-poller streams.
    """

    def __init__(
        self,
        routing: RoutingMatrix,
        num_pollers: int = 3,
        interval_seconds: float = 300.0,
        jitter_std_seconds: float = 2.0,
        loss_probability: float = 0.0,
        seed: Optional[int] = None,
        max_interpolated_fraction: float = 1.0,
        counter_bits: int = 64,
        fault_plan: Optional[object] = None,
    ) -> None:
        if num_pollers < 1:
            raise MeasurementError("need at least one poller")
        self.routing = routing
        self.interval_seconds = float(interval_seconds)
        self.max_interpolated_fraction = float(max_interpolated_fraction)
        #: Per-poller sample accounting of the most recent :meth:`collect` run.
        self.poll_diagnostics: tuple[RateDiagnostics, ...] = ()
        # Object-major (objects, K) rates and series start of the most
        # recent collect(); LSP rows first, in pair order, then link rows.
        self._rates: Optional[np.ndarray] = None
        self._start_time = 0.0

        all_objects = counter_names(routing)

        # Round-robin assignment of objects to pollers approximates the
        # paper's geographic split while keeping per-poller load balanced.
        # Poller i owns the strided columns slice(i, None, num_pollers) of
        # the counter order, so collection is pure strided slicing.
        base_seed = seed if seed is not None else 0
        self.pollers: list[SNMPPoller] = []
        #: Each poller's columns of the counter order (:func:`counter_names`),
        #: in :attr:`pollers` order: strided slices that partition it.
        self.assignments: list[slice] = []
        for poller_idx in range(num_pollers):
            columns = slice(poller_idx, None, num_pollers)
            object_names = all_objects[columns]
            if not object_names:
                continue
            poller_plan = (
                fault_plan.for_poller(poller_idx)
                if fault_plan is not None and hasattr(fault_plan, "for_poller")
                else fault_plan
            )
            self.pollers.append(
                SNMPPoller(
                    object_names=object_names,
                    interval_seconds=interval_seconds,
                    jitter_std_seconds=jitter_std_seconds,
                    loss_probability=loss_probability,
                    seed=base_seed + poller_idx,
                    counter_bits=counter_bits,
                    fault_plan=poller_plan,
                    fault_salt=poller_idx,
                )
            )
            self.assignments.append(columns)

    # ------------------------------------------------------------------
    def poll_matrices(
        self, series: TrafficMatrixSeries, start_time: Optional[float] = None
    ) -> list[PollMatrix]:
        """Run every poller's schedule and return the *raw* poll matrices.

        Every poller drives its counters with the true rates of each
        interval — LSPs carry the demands themselves, links ``R s`` — and
        polls on the shared schedule; fault plans are applied.  The result
        is one ``(rounds, objects)``
        :class:`~repro.measurement.snmp.PollMatrix` per poller, in
        :attr:`pollers` order.  :meth:`collect` derives rates from them;
        the streaming layer consumes their rounds one at a time (see
        :class:`repro.streaming.PollStream`).  Counters carry over between
        calls, so a collector is used for one mode or the other, not both
        over the same series.

        ``start_time`` defaults to the series' own start time, so measured
        timestamps line up with the driving series without any bookkeeping
        by the caller.
        """
        if series.pairs != self.routing.pairs:
            raise MeasurementError("series pair ordering does not match the routing matrix")
        if not np.isclose(series.interval_seconds, self.interval_seconds):
            raise MeasurementError(
                f"series interval ({series.interval_seconds} s) does not match "
                f"the polling interval ({self.interval_seconds} s)"
            )
        if start_time is None:
            start_time = series.start_time_seconds
        start_time = float(start_time)
        demands = series.as_array()  # (K, P)
        rate_matrix = np.hstack([demands, self.routing.matmat(demands.T).T])
        return [
            poller.run_schedule_matrix(rate_matrix[:, columns], start_time=start_time)
            for poller, columns in zip(self.pollers, self.assignments)
        ]

    def collect(
        self, series: TrafficMatrixSeries, start_time: Optional[float] = None
    ) -> None:
        """Run the full collection pipeline over a traffic series.

        Runs :meth:`poll_matrices` and converts each poller's matrix with
        :func:`~repro.measurement.snmp.rates_from_poll_matrix`.  The measured
        data and :attr:`poll_diagnostics` then describe this run; a later
        call replaces them.
        """
        polls = self.poll_matrices(series, start_time)
        routing = self.routing
        rates = np.empty((routing.num_pairs + routing.num_links, len(series)))
        diagnostics = []
        for matrix, columns in zip(polls, self.assignments):
            poller_rates, poller_diagnostics = rates_from_poll_matrix(
                matrix, max_interpolated_fraction=self.max_interpolated_fraction
            )
            rates[columns] = poller_rates.T
            diagnostics.append(poller_diagnostics)
        self._rates = rates
        self._start_time = float(polls[0].scheduled_times[0])
        self.poll_diagnostics = tuple(diagnostics)

    def collection_diagnostics(self) -> RateDiagnostics:
        """Sample accounting of the last :meth:`collect`, merged over pollers."""
        if not self.poll_diagnostics:
            raise MeasurementError("no collection has run yet")
        merged = self.poll_diagnostics[0]
        for diagnostics in self.poll_diagnostics[1:]:
            merged = merged.merged(diagnostics)
        return merged

    # ------------------------------------------------------------------
    def _collected_rates(self) -> np.ndarray:
        if self._rates is None:
            raise MeasurementError("no collection has run yet")
        return self._rates

    def measured_traffic_series(self) -> TrafficMatrixSeries:
        """Reconstruct the measured traffic-matrix series from LSP counters.

        This is the paper's headline capability: because every demand is an
        LSP with its own counter, the collected rates *are* a complete
        traffic matrix per interval.  Snapshot ``k`` is stamped with the
        *start* of its interval, so the returned series carries the same
        timestamps as the driving series.
        """
        lsp_rates = self._collected_rates()[: self.routing.num_pairs]
        snapshots = [
            TrafficMatrix(self.routing.pairs, np.maximum(lsp_rates[:, k], 0.0))
            for k in range(lsp_rates.shape[1])
        ]
        return TrafficMatrixSeries(
            snapshots,
            interval_seconds=self.interval_seconds,
            start_time_seconds=self._start_time,
        )

    def measured_link_loads(self) -> np.ndarray:
        """Measured link-load series of shape ``(K, L)`` from link counters."""
        return self._collected_rates()[self.routing.num_pairs :].copy().T
