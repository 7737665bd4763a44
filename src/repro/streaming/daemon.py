"""Crash-safe streaming traffic-matrix estimation.

:class:`StreamingEstimator` is the long-running counterpart of the batch
``estimate_series`` loop: it consumes SNMP poll rounds one at a time,
derives interval rates causally through a
:class:`~repro.streaming.stream.CounterTracker`, and estimates each
interval with one cold :meth:`~repro.estimation.base.Estimator.estimate`
of its problem, exactly what a batch run on the same data returns.  Its
counters are the routing's
(:func:`~repro.measurement.collector.counter_names`: one per LSP, then one
per link), and it holds only the state an estimate reads: the tracker's
arrays, the last estimate and a few counts, so memory is constant
regardless of stream length.

The daemon is built to *survive* the faults the resilience layer injects:

* **partial data** — polls lost for some links still produce an estimate;
  missing links use the tracker's held rates;
* **collector outages** — when the fraction of freshly-measured links
  drops below ``min_valid_fraction`` the daemon holds its last estimate
  and emits a record explicitly flagged ``stale`` instead of solving on
  fabricated data;
* **solver failure** — every estimate carries its certificate (the
  duality gap of the dual kernel, the relative marginal violation of
  Kruithof's IPF) behind its ``converged`` flag.  An estimate that raises
  or reports ``converged=False`` is replaced, on that poll, by the answer of a
  :class:`~repro.resilience.SupervisedEstimator` chain over the
  ``fallbacks`` built with ``require_convergence=True``, and the record
  is flagged ``degraded``.  The failed method is not run again: a cold
  solve of the same problem would fail the same way;
* **routing churn** — :meth:`apply_reroute` re-routes the base routing
  around the failed elements with :func:`~repro.routing.reroute` (only the
  columns that crossed them change) and bumps the routing *epoch* tagged
  on every record; a failure set that cannot be applied raises
  :class:`~repro.errors.StreamingError` and changes no state.  The next
  poll is a cold solve on the new routing like any other;
* **crashes** — the whole daemon state checkpoints to one file (format
  5: a JSON header, then the raw arrays under a CRC-32), written to a
  temporary file and renamed over the last checkpoint (see
  :mod:`repro.streaming.checkpoint`); ``kill -9`` followed by
  :meth:`restore` and resuming the stream reproduces the uninterrupted
  run's records bit for bit, because no daemon path consults wall-clock
  time or unseeded randomness.
"""

from __future__ import annotations

import json
import warnings
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.errors import (
    EstimationError,
    RoutingError,
    SolverError,
    StreamingError,
    TopologyError,
)
from repro.estimation.base import EstimationProblem
from repro.estimation.registry import get_estimator
from repro.measurement.collector import counter_names
from repro.measurement.snmp import CounterWidths
from repro.resilience.supervisor import SupervisedEstimator
from repro.routing.routing_matrix import RerouteResult, RoutingMatrix, reroute
from repro.streaming.stream import PollRound, PollStream, CounterTracker

__all__ = ["StreamRecord", "StreamingEstimator"]


def _hex(value: float) -> str:
    return float(value).hex()


@dataclass(frozen=True)
class StreamRecord:
    """One emitted per-interval estimate with its provenance flags.

    Attributes
    ----------
    sequence:
        Zero-based interval index (poll round index minus one — the first
        round only primes the counters).
    timestamp:
        Scheduled time of the poll round that closed the interval.
    epoch:
        Routing epoch the estimate was computed under; bumped by
        :meth:`StreamingEstimator.apply_reroute`.
    method:
        Method that produced the estimate (``"held"`` for stale records).
    estimate:
        Estimated demand vector in the routing matrix's pair order.
    stale:
        True when the daemon held its previous estimate instead of solving
        (too few freshly-measured links).
    stale_intervals:
        Consecutive stale records ending at this one (0 when not stale).
    valid_fraction:
        Fraction of links whose rate was derived from this round's polls.
    degraded:
        True when the method's estimate raised or reported
        ``converged=False`` and the fallback chain produced it instead.
    iterations / converged:
        Solver diagnostics of the producing method, when reported.
    """

    sequence: int
    timestamp: float
    epoch: int
    method: str
    estimate: np.ndarray
    stale: bool
    stale_intervals: int
    valid_fraction: float
    degraded: bool
    iterations: Optional[int]
    converged: Optional[bool]

    def to_payload(self) -> dict:
        """JSON-safe dict with floats hex-encoded for bit-exact comparison."""
        return {
            "sequence": self.sequence,
            "timestamp": _hex(self.timestamp),
            "epoch": self.epoch,
            "method": self.method,
            "estimate": [_hex(value) for value in self.estimate.tolist()],
            "stale": self.stale,
            "stale_intervals": self.stale_intervals,
            "valid_fraction": _hex(self.valid_fraction),
            "degraded": self.degraded,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    def payload_line(self) -> str:
        """Canonical one-line JSON encoding (the chaos drill's record format)."""
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))


class StreamingEstimator:
    """Estimation daemon over a live poll stream.

    Parameters
    ----------
    routing:
        The routing matrix of the measured mesh (its ``network`` must be
        set for :meth:`apply_reroute` to work).  It fixes the streamed
        counters: one per LSP in pair order, then one per link (see
        :func:`~repro.measurement.collector.counter_names`), whose rates
        give the link loads and the origin/destination totals.
    method / method_params:
        Registry name (and constructor kwargs) of the estimation method.
    fallbacks:
        The chain, tried in order, that answers a poll whose estimate
        raised or was uncertified; it must name at least one method.
    min_valid_fraction:
        Minimum fraction of freshly-measured links required to solve;
        below it the previous estimate is held and flagged stale.

    Four public counters tally the stream: ``watchdog_checks`` (estimate
    certificates read), ``watchdog_resolves`` (certificate breaches),
    ``degraded_updates`` (polls the fallback chain answered, breaches and
    raised estimates alike) and ``stale_polls``.
    """

    def __init__(
        self,
        routing: RoutingMatrix,
        method: str = "tomogravity",
        method_params: Optional[Mapping[str, object]] = None,
        fallbacks: Sequence[str] = ("gravity",),
        min_valid_fraction: float = 0.5,
    ) -> None:
        if not 0.0 <= float(min_valid_fraction) <= 1.0:
            raise StreamingError("min_valid_fraction must be within [0, 1]")
        if not fallbacks:
            raise StreamingError("fallbacks must name at least one method")
        self.routing = routing
        self.base_routing = routing
        self.method = str(method)
        self.method_params = dict(method_params or {})
        self.fallbacks = tuple(fallbacks)
        self.min_valid_fraction = float(min_valid_fraction)

        self.tracker = CounterTracker(routing.num_pairs + routing.num_links)
        self._estimator = get_estimator(self.method, **self.method_params)
        self._supervisor = SupervisedEstimator(
            primary=self.fallbacks[0],
            fallbacks=self.fallbacks[1:],
            require_convergence=True,
        )
        # The last stream whose objects were checked against the counters.
        self._checked_stream: Optional[weakref.ref] = None

        # Mutable daemon state (everything below is checkpointed).
        self.rounds_seen = 0
        self.sequence = 0
        self.epoch = 0
        self.failed_links: set[str] = set()
        self.failed_nodes: set[str] = set()
        # The last estimate, held on stale polls; no solve reads it.
        self.estimate: Optional[np.ndarray] = None
        self.stale_streak = 0
        self.stale_polls = 0
        self.degraded_updates = 0
        self.watchdog_checks = 0
        self.watchdog_resolves = 0

    @classmethod
    def from_collector(cls, collector, **kwargs) -> "StreamingEstimator":
        """Daemon wired to a :class:`~repro.measurement.collector.DistributedCollector`.

        Uses the collector's routing matrix, whose counters the collector
        polls, so ``daemon.run(PollStream.from_collector(collector, series))``
        works out of the box.
        """
        return cls(routing=collector.routing, **kwargs)

    # ------------------------------------------------------------------
    # configuration echo (used by the checkpoint layer)
    # ------------------------------------------------------------------
    def config(self) -> dict:
        """JSON-safe constructor arguments (sans routing) of this daemon."""
        return {
            "method": self.method,
            "method_params": dict(self.method_params),
            "fallbacks": list(self.fallbacks),
            "min_valid_fraction": self.min_valid_fraction,
        }

    # ------------------------------------------------------------------
    # routing churn
    # ------------------------------------------------------------------
    def _reroute(
        self, failed_links: Iterable[str], failed_nodes: Iterable[str]
    ) -> tuple[RoutingMatrix, RerouteResult]:
        """The base routing re-routed around the failed elements.

        Raises :class:`~repro.errors.StreamingError` naming the problem
        (an unknown element, or a routing without its network) and leaves
        the daemon untouched.
        """
        try:
            return reroute(self.base_routing, failed_links, failed_nodes)
        except (RoutingError, TopologyError) as exc:
            raise StreamingError(f"cannot apply reroute: {exc}") from exc

    def apply_reroute(
        self,
        failed_links: Iterable[str] = (),
        failed_nodes: Iterable[str] = (),
    ) -> RerouteResult:
        """Fold a topology change into the stream mid-flight.

        Failures accumulate: each call re-routes the *base* routing around
        the union of every failure reported so far.  Columns that cross no
        failed element keep their base routes, whatever built the base;
        the affected pairs take IGP shortest paths (see
        :func:`~repro.routing.reroute`).  The routing epoch is bumped and
        nothing else changes: the next poll is a cold solve on the new
        routing and proves itself by its certificate like any other.  A
        failure set that cannot be applied raises
        :class:`~repro.errors.StreamingError` before any state changes.
        """
        links = self.failed_links | set(failed_links)
        nodes = self.failed_nodes | set(failed_nodes)
        self.routing, result = self._reroute(links, nodes)
        self.failed_links, self.failed_nodes = links, nodes
        self.epoch += 1
        telemetry.counter_inc("stream.reroutes")
        telemetry.add_event(
            "stream.reroute",
            epoch=self.epoch,
            rerouted=len(result.rerouted),
            infeasible=len(result.infeasible),
        )
        return result

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def _problem(self, link_rates: np.ndarray, lsp_rates: np.ndarray) -> EstimationProblem:
        origins, destinations, origin_codes, destination_codes = self.routing.pairs.codes()
        origin_totals = np.bincount(origin_codes, weights=lsp_rates, minlength=len(origins))
        destination_totals = np.bincount(
            destination_codes, weights=lsp_rates, minlength=len(destinations)
        )
        return EstimationProblem(
            routing=self.routing,
            link_loads=link_rates,
            origin_totals=origin_totals,
            destination_totals=destination_totals,
        )

    def _update(self, problem: EstimationProblem, sequence: int):
        """The poll's estimate and whether the fallback chain produced it.

        The method's cold estimate is trusted on its certificate: one that
        raises or reports ``converged=False`` is replaced by the fallback
        chain's answer.
        """
        try:
            result = self._estimator.estimate(problem)
            self.watchdog_checks += 1
            telemetry.counter_inc("stream.watchdog_checks")
            if result.diagnostics.get("converged") is not False:
                return result, False
            self.watchdog_resolves += 1
            telemetry.counter_inc("stream.watchdog_resolves")
            raise EstimationError(f"method {self.method!r} reported converged=False")
        except (EstimationError, SolverError) as exc:
            self.degraded_updates += 1
            telemetry.counter_inc("stream.degraded_updates")
            warnings.warn(
                f"{self.method} estimate failed at sequence {sequence} "
                f"({type(exc).__name__}: {exc}); falling back to "
                f"{list(self.fallbacks)}",
                RuntimeWarning,
                stacklevel=3,
            )
        with telemetry.span("stream.fallback", method=self.fallbacks[0]):
            return self._supervisor.estimate(problem), True

    @staticmethod
    def _diagnostic_ints(result) -> tuple[Optional[int], Optional[bool]]:
        iterations = result.diagnostics.get("iterations")
        converged = result.diagnostics.get("converged")
        return (
            None if iterations is None else int(iterations),
            None if converged is None else bool(converged),
        )

    def _step(
        self,
        timestamp: float,
        response_times: np.ndarray,
        counters: np.ndarray,
        lost: np.ndarray,
        widths: CounterWidths,
    ) -> Optional[StreamRecord]:
        rates, fresh = self.tracker.observe(response_times, counters, lost, widths)
        self.rounds_seen += 1
        if self.rounds_seen == 1:
            # The first round only primes the counters; no interval exists yet.
            return None

        num_pairs = self.routing.num_pairs
        link_rates = rates[num_pairs:]
        lsp_rates = rates[:num_pairs]
        valid_fraction = float(fresh[num_pairs:].mean())

        telemetry.counter_inc("stream.polls")
        telemetry.gauge_set("stream.valid_fraction", valid_fraction)
        telemetry.gauge_set("stream.epoch", float(self.epoch))

        stale = valid_fraction < self.min_valid_fraction
        sequence = self.sequence
        self.sequence += 1

        if stale:
            self.stale_streak += 1
            self.stale_polls += 1
            telemetry.counter_inc("stream.stale_polls")
            telemetry.add_event(
                "stream.stale", sequence=sequence, valid_fraction=valid_fraction
            )
            held = (
                np.zeros(self.routing.num_pairs)
                if self.estimate is None
                else self.estimate.copy()
            )
            return StreamRecord(
                sequence=sequence,
                timestamp=timestamp,
                epoch=self.epoch,
                method="held",
                estimate=held,
                stale=True,
                stale_intervals=self.stale_streak,
                valid_fraction=valid_fraction,
                degraded=False,
                iterations=None,
                converged=None,
            )

        self.stale_streak = 0
        problem = self._problem(link_rates, lsp_rates)
        with telemetry.span("stream.update", sequence=sequence, epoch=self.epoch):
            result, degraded = self._update(problem, sequence)
        estimate = np.maximum(np.asarray(result.vector, dtype=float), 0.0)
        iterations, converged = self._diagnostic_ints(result)
        self.estimate = estimate.copy()
        return StreamRecord(
            sequence=sequence,
            timestamp=timestamp,
            epoch=self.epoch,
            method=result.method,
            estimate=estimate,
            stale=False,
            stale_intervals=0,
            valid_fraction=valid_fraction,
            degraded=degraded,
            iterations=iterations,
            converged=converged,
        )

    # ------------------------------------------------------------------
    # crash safety
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> None:
        """Write the daemon's full state to ``path`` (see :mod:`repro.streaming.checkpoint`)."""
        from repro.streaming.checkpoint import save_checkpoint

        with telemetry.span("stream.checkpoint", rounds=self.rounds_seen):
            save_checkpoint(self, path)
        telemetry.counter_inc("stream.checkpoints")

    @classmethod
    def restore(cls, path: str, routing: RoutingMatrix) -> "StreamingEstimator":
        """Reconstruct a daemon from a checkpoint and its base routing matrix."""
        from repro.streaming.checkpoint import restore_daemon

        return restore_daemon(path, routing)

    # ------------------------------------------------------------------
    # stream consumption
    # ------------------------------------------------------------------
    def _check_stream(self, stream: PollStream) -> None:
        """Accept ``stream`` once its objects are this daemon's counters, in order.

        The routing caches its counter names, so a stream built by
        :meth:`PollStream.from_collector` on it holds the very same strings
        and the comparison costs no string work.
        """
        if self._checked_stream is not None and self._checked_stream() is stream:
            return
        if stream.object_names != counter_names(self.base_routing):
            raise StreamingError(
                "stream objects are not the routing's counters in counter order "
                "(LSPs in pair order, then links); build the stream with "
                "PollStream.from_collector"
            )
        self._checked_stream = weakref.ref(stream)

    def process_round(self, poll_round: PollRound, stream: PollStream) -> Optional[StreamRecord]:
        """Fold one :class:`~repro.streaming.stream.PollRound` into the daemon.

        Returns the emitted record, or ``None`` for the priming round.
        Rounds must be consumed in order; feeding a round the daemon has
        already consumed (or skipping ahead) raises.
        """
        if poll_round.index != self.rounds_seen:
            raise StreamingError(
                f"expected round {self.rounds_seen}, got round {poll_round.index} "
                "(streams must be consumed in order; resume from a checkpoint "
                "re-enters at the recorded round)"
            )
        self._check_stream(stream)
        with telemetry.span("stream.poll", round=poll_round.index, epoch=self.epoch):
            return self._step(
                poll_round.scheduled_time,
                poll_round.response_times,
                poll_round.counters,
                poll_round.lost,
                stream.widths,
            )

    def run(self, stream: PollStream) -> Iterator[StreamRecord]:
        """Consume ``stream`` from the daemon's current position.

        A fresh daemon starts at round 0; a restored daemon picks up at
        the first round the checkpoint had not consumed, which is what
        makes kill/resume reproduce the uninterrupted run exactly.
        """
        for poll_round in stream.rounds(self.rounds_seen):
            record = self.process_round(poll_round, stream)
            if record is not None:
                yield record
