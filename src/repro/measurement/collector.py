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
matrix* and *measured link loads* the estimation benchmarks start from
(:func:`counter_names`: one counter per LSP, then one per link).  The
streaming daemon reads only what an estimator reads, the link loads and
the per-PoP edge totals, so a collector also polls a second, much smaller
set of counters for it (:func:`edge_counter_names`, through
:meth:`DistributedCollector.poll_edge_matrices`): the links, then one
ingress and one egress counter per PoP, driven by the demands' per-origin
and per-destination sums.  The LSP pollers are built on first use, so a
collector used only for streaming never names an LSP.
"""

from __future__ import annotations

from typing import Any, Optional

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

__all__ = ["DistributedCollector", "counter_names", "edge_counter_names"]


def counter_names(routing: RoutingMatrix) -> tuple[str, ...]:
    """SNMP object names of the counters a collector polls on ``routing``.

    One counter per LSP, named ``lsp:o->d``, in pair order, then one per
    link under its link name (paper Section 5.1.2).  The collected rates
    and the measured traffic matrix take the counter order from here, so
    it is fixed by the routing's pair and link orderings.  The names are
    built once per routing matrix and cached with its other lazily
    derived state, so every caller on one matrix shares one tuple.
    """
    if routing._counter_names is None:
        lsps = tuple(f"lsp:{pair.origin}->{pair.destination}" for pair in routing.pairs)
        routing._counter_names = lsps + tuple(routing.link_names)
    return routing._counter_names


def edge_counter_names(routing: RoutingMatrix) -> tuple[str, ...]:
    """SNMP object names of the counters a poll stream carries on ``routing``.

    One counter per link under its link name, in link order, then one
    ``ingress:<node>`` counter per origin and one ``egress:<node>`` counter
    per destination, in the label order of ``routing.pairs.codes()``: the
    link loads and the edge totals ``t_e(n)`` / ``t_x(m)`` of an
    :class:`~repro.estimation.base.EstimationProblem`, in the order it
    holds them.  An ingress (egress) counter sees the sum of the demands
    leaving (entering) its node.  The poll stream and the streaming daemon
    take their counter order from here; like :func:`counter_names`, the
    names are cached on the routing matrix.
    """
    if routing._edge_counter_names is None:
        origins, destinations, _, _ = routing.pairs.codes()
        routing._edge_counter_names = (
            tuple(routing.link_names)
            + tuple(f"ingress:{node}" for node in origins)
            + tuple(f"egress:{node}" for node in destinations)
        )
    return routing._edge_counter_names


class DistributedCollector:
    """A set of regional pollers feeding one central rate store.

    Parameters
    ----------
    routing:
        Routing matrix of the measured network; its pair and link orderings
        define the LSP, link and edge objects to poll.
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
        self.num_pollers = int(num_pollers)
        self.interval_seconds = float(interval_seconds)
        self.max_interpolated_fraction = float(max_interpolated_fraction)
        #: Per-poller sample accounting of the most recent :meth:`collect` run.
        self.poll_diagnostics: tuple[RateDiagnostics, ...] = ()
        # Object-major (objects, K) rates and series start of the most
        # recent collect(); LSP rows first, in pair order, then link rows.
        self._rates: Optional[np.ndarray] = None
        self._start_time = 0.0
        self._poller_options: dict[str, Any] = dict(
            interval_seconds=interval_seconds,
            jitter_std_seconds=jitter_std_seconds,
            loss_probability=loss_probability,
            counter_bits=counter_bits,
        )
        self._seed = seed if seed is not None else 0
        self._fault_plan = fault_plan

        #: The pollers of the edge counters (:func:`edge_counter_names`)
        #: and, in the same order, their strided columns of that order.
        self.edge_pollers, self.edge_assignments = self._split(edge_counter_names(routing))
        # The LSP and link pollers of collect(), built on first use.
        self._lsp_split: Optional[tuple[list[SNMPPoller], list[slice]]] = None

    def _split(self, names: tuple[str, ...]) -> tuple[list[SNMPPoller], list[slice]]:
        """One poller per non-empty strided slice of ``names``, and the slices.

        Round-robin assignment of objects to pollers approximates the
        paper's geographic split while keeping per-poller load balanced.
        Poller ``i`` owns the columns ``slice(i, None, num_pollers)`` of the
        counter order, so collection is pure strided slicing; it is seeded
        with ``seed + i`` and polls under the fault plan resolved for index
        ``i``, whichever counters it polls.
        """
        pollers: list[SNMPPoller] = []
        assignments: list[slice] = []
        plan = self._fault_plan
        for poller_idx in range(self.num_pollers):
            columns = slice(poller_idx, None, self.num_pollers)
            object_names = names[columns]
            if not object_names:
                continue
            pollers.append(
                SNMPPoller(
                    object_names=object_names,
                    seed=self._seed + poller_idx,
                    fault_plan=(
                        plan.for_poller(poller_idx)
                        if plan is not None and hasattr(plan, "for_poller")
                        else plan
                    ),
                    fault_salt=poller_idx,
                    **self._poller_options,
                )
            )
            assignments.append(columns)
        return pollers, assignments

    def _lsp(self) -> tuple[list[SNMPPoller], list[slice]]:
        if self._lsp_split is None:
            self._lsp_split = self._split(counter_names(self.routing))
        return self._lsp_split

    @property
    def pollers(self) -> list[SNMPPoller]:
        """The pollers of :func:`counter_names` (LSPs, then links), built on first use."""
        return self._lsp()[0]

    @property
    def assignments(self) -> list[slice]:
        """Each of :attr:`pollers`' strided columns of :func:`counter_names`, in order."""
        return self._lsp()[1]

    # ------------------------------------------------------------------
    def _demands(
        self, series: TrafficMatrixSeries, start_time: Optional[float]
    ) -> tuple[np.ndarray, float]:
        """The ``(K, P)`` demands of ``series`` and the schedule's start."""
        if series.pairs != self.routing.pairs:
            raise MeasurementError("series pair ordering does not match the routing matrix")
        if not np.isclose(series.interval_seconds, self.interval_seconds):
            raise MeasurementError(
                f"series interval ({series.interval_seconds} s) does not match "
                f"the polling interval ({self.interval_seconds} s)"
            )
        if start_time is None:
            start_time = series.start_time_seconds
        return series.as_array(), float(start_time)

    @staticmethod
    def _poll(
        pollers: list[SNMPPoller],
        assignments: list[slice],
        rate_matrix: np.ndarray,
        start_time: float,
    ) -> list[PollMatrix]:
        return [
            poller.run_schedule_matrix(rate_matrix[:, columns], start_time=start_time)
            for poller, columns in zip(pollers, assignments)
        ]

    def poll_matrices(
        self, series: TrafficMatrixSeries, start_time: Optional[float] = None
    ) -> list[PollMatrix]:
        """Run every LSP and link poller's schedule and return the *raw* poll matrices.

        Every poller drives its counters with the true rates of each
        interval — LSPs carry the demands themselves, links ``R s`` — and
        polls on the shared schedule; fault plans are applied.  The result
        is one ``(rounds, objects)``
        :class:`~repro.measurement.snmp.PollMatrix` per poller, in
        :attr:`pollers` order, over the columns of :func:`counter_names`.
        :meth:`collect` derives rates from them.  Counters carry over
        between calls, like a real device's.

        ``start_time`` defaults to the series' own start time, so measured
        timestamps line up with the driving series without any bookkeeping
        by the caller.
        """
        demands, start = self._demands(series, start_time)
        rate_matrix = np.hstack([demands, self.routing.matmat(demands.T).T])
        return self._poll(self.pollers, self.assignments, rate_matrix, start)

    def poll_edge_matrices(
        self, series: TrafficMatrixSeries, start_time: Optional[float] = None
    ) -> list[PollMatrix]:
        """Run every edge poller's schedule and return its raw poll matrix.

        Like :meth:`poll_matrices`, over the columns of
        :func:`edge_counter_names`: the links carry ``R s``, an
        ``ingress:<node>`` counter the sum of the demands leaving the node
        and an ``egress:<node>`` counter the sum of those entering it.  One
        :class:`~repro.measurement.snmp.PollMatrix` per poller, in
        :attr:`edge_pollers` order; the streaming layer consumes their
        rounds one at a time (see :class:`repro.streaming.PollStream`).  The
        edge pollers keep counters of their own, so a stream and a
        :meth:`collect` on one collector do not disturb each other.
        """
        demands, start = self._demands(series, start_time)
        rate_matrix = np.hstack(
            [self.routing.matmat(demands.T).T, *self.routing.pairs.edge_sums(demands)]
        )
        return self._poll(self.edge_pollers, self.edge_assignments, rate_matrix, start)

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
