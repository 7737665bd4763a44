"""Scenario objects bundling a network, its routing and a day of traffic.

A :class:`Scenario` is the unit every benchmark and example works with: it
ties together

* the topology (:class:`~repro.topology.network.Network`),
* the routing matrix built by the CSPF/IGP simulator,
* a 24-hour, five-minute-resolution traffic-matrix series, and
* the busy-period window used for estimation (the paper uses 250 minutes =
  50 samples).

From these it derives the observable quantities the estimators are allowed
to see — link-load snapshots and series, edge-node totals — packaged as
:class:`~repro.estimation.base.EstimationProblem` objects, and the ground
truth they are scored against.  The experiment runners of
:mod:`repro.evaluation.experiments` score estimation methods on them; its
:func:`~repro.evaluation.experiments.registry_specs` rows run every
registered method (or a chosen subset) over the series through the batched
``estimate_series`` path.

Two data modes feed the estimators:

* the **consistent** mode (plain :class:`Scenario`) computes link loads as
  ``t = R s`` from the true demands — the paper's Section 5.1.4 evaluation
  data set, free of measurement error by construction;
* the **measured** mode (:class:`MeasuredScenario`, built with
  :meth:`Scenario.measured`) runs the full SNMP collection pipeline of
  Section 5.1.2 — distributed pollers, response jitter, UDP loss,
  interval-adjusted rates — over the day series and builds the estimation
  problems from the *measured* LSP matrix and *measured* link loads, while
  the runners still score against the true series.  With zero jitter and
  zero loss the measured problems coincide with the consistent ones (up to
  counter byte quantisation), which the test suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import telemetry
from repro.errors import TrafficError
from repro.estimation.base import EstimationProblem
from repro.measurement.collector import DistributedCollector
from repro.measurement.linkloads import link_load_series
from repro.routing.routing_matrix import RoutingMatrix
from repro.topology.network import Network
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSeries

__all__ = ["Scenario", "MeasuredScenario"]


@dataclass
class Scenario:
    """A network plus a measured day of traffic, ready for estimation studies.

    Attributes
    ----------
    name:
        Scenario identifier (e.g. ``"europe"``).
    network:
        The backbone topology.
    routing:
        Routing matrix over the network's canonical pair order.
    day_series:
        24 hours of five-minute traffic matrices (the "measured" LSP data).
    busy_length:
        Number of snapshots in the busy-period window (the paper's 50).
    """

    name: str
    network: Network
    routing: RoutingMatrix
    day_series: TrafficMatrixSeries
    busy_length: int = 50
    _busy_series: Optional[TrafficMatrixSeries] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.routing.pairs != self.day_series.pairs:
            raise TrafficError("routing matrix and traffic series use different pair orderings")
        if self.busy_length < 2:
            raise TrafficError("busy_length must be at least 2")
        if self.busy_length > len(self.day_series):
            raise TrafficError("busy_length exceeds the length of the day series")

    # ------------------------------------------------------------------
    # traffic views
    # ------------------------------------------------------------------
    def busy_window_start(self) -> int:
        """Start index of the busy period within the day series."""
        return self.day_series.busy_window_start(self.busy_length)

    def busy_series(self) -> TrafficMatrixSeries:
        """The busy-period window: the ``busy_length`` busiest consecutive snapshots."""
        if self._busy_series is None:
            self._busy_series = self.day_series.busy_window(self.busy_length)
        return self._busy_series

    def busy_mean_matrix(self) -> TrafficMatrix:
        """Mean traffic matrix over the busy period (the estimation ground truth)."""
        return self.busy_series().mean_matrix()

    def busy_snapshot(self, index: int = 0) -> TrafficMatrix:
        """A single snapshot from the busy period."""
        return self.busy_series()[index]

    # ------------------------------------------------------------------
    # observable data / estimation problems
    # ------------------------------------------------------------------
    def _edge_totals(self, matrix: TrafficMatrix) -> tuple[dict[str, float], dict[str, float]]:
        return matrix.origin_totals(), matrix.destination_totals()

    def snapshot_problem(self, matrix: Optional[TrafficMatrix] = None) -> EstimationProblem:
        """Estimation problem for a single consistent snapshot.

        The default snapshot is the busy-period mean matrix, matching the
        paper's evaluation of the snapshot methods on the busy hour.  Link
        loads are computed as ``t = R s`` (the consistent data set of
        Section 5.1.4), and the edge totals of the same matrix are exposed
        as the observable ``t_e(n)`` / ``t_x(m)``.
        """
        matrix = matrix if matrix is not None else self.busy_mean_matrix()
        origin_totals, destination_totals = self._edge_totals(matrix)
        return EstimationProblem(
            routing=self.routing,
            link_loads=self.routing.link_loads(matrix.vector),
            origin_totals=origin_totals,
            destination_totals=destination_totals,
        )

    def _series_problem_from(
        self, series: TrafficMatrixSeries, loads: np.ndarray
    ) -> EstimationProblem:
        """Build a series problem from a demand series and its link loads.

        ``loads`` is the ``(K, L)`` link-load series the estimators observe;
        the consistent mode computes it as ``t = R s``, the measured mode
        passes the link counters collected by the SNMP pipeline.  Edge
        totals are derived from ``series`` (they are observable from the
        access links in both modes), vectorised from the demand array.
        The series must share the routing's pair order: the totals are
        vectors in that order and carry no names to re-align by.
        """
        if series.pairs is not self.routing.pairs and series.pairs != self.routing.pairs:
            raise TrafficError("routing matrix and traffic series use different pair orderings")
        origin_series, destination_series = series.pairs.edge_sums(series.as_array())
        mean_matrix = series.mean_matrix()
        origin_totals, destination_totals = self._edge_totals(mean_matrix)
        return EstimationProblem(
            routing=self.routing,
            link_loads=loads.mean(axis=0),
            link_load_series=loads,
            origin_totals=origin_totals,
            destination_totals=destination_totals,
            origin_totals_series=origin_series,
            destination_totals_series=destination_series,
        )

    def series_problem(
        self,
        series: Optional[TrafficMatrixSeries] = None,
        window_length: Optional[int] = None,
    ) -> EstimationProblem:
        """Estimation problem exposing a link-load time series.

        Used by the time-series estimators (fanout, Vardi) and by the
        batched ``estimate_series`` path.  The series defaults to the busy
        period; ``window_length`` truncates it.  Per-snapshot origin ingress
        and destination egress totals are included (both are observable from
        the edge links), with link loads computed as the consistent
        ``t = R s``.
        """
        series = series if series is not None else self.busy_series()
        if window_length is not None:
            series = series.window(0, window_length)
        return self._series_problem_from(series, link_load_series(self.routing, series))

    # ------------------------------------------------------------------
    # measured-data mode
    # ------------------------------------------------------------------
    def measured(
        self,
        jitter_std_seconds: float = 0.0,
        loss_probability: float = 0.0,
        num_pollers: int = 3,
        seed: Optional[int] = None,
        max_interpolated_fraction: float = 1.0,
        fault_plan: Optional[object] = None,
        counter_bits: int = 64,
    ) -> "MeasuredScenario":
        """A view of this scenario whose observables come from SNMP collection.

        The returned :class:`MeasuredScenario` shares this scenario's
        network, routing, day series and busy window, but its estimation
        problems are built from the *measured* LSP matrix and link loads
        produced by a :class:`~repro.measurement.collector.DistributedCollector`
        run with the given jitter, loss and poller count — while the ground
        truth (``busy_series`` and friends) stays the true series, so the
        experiment runners score estimators on inconsistent data against the
        real demands.

        ``fault_plan`` (a :class:`~repro.resilience.faults.FaultPlan`)
        injects deterministic collection failures — loss bursts, counter
        resets, Counter32 wraps, clock skew, poller outages — on top of
        the statistical jitter/loss model, and ``counter_bits=32`` makes
        the pollers read wrapping Counter32 counters.
        """
        return MeasuredScenario(
            name=self.name,
            network=self.network,
            routing=self.routing,
            day_series=self.day_series,
            busy_length=self.busy_length,
            jitter_std_seconds=jitter_std_seconds,
            loss_probability=loss_probability,
            num_pollers=num_pollers,
            measurement_seed=seed,
            max_interpolated_fraction=max_interpolated_fraction,
            fault_plan=fault_plan,
            counter_bits=counter_bits,
        )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def planning(self, utilisation_threshold: float = 0.9) -> "WhatIfEngine":
        """A :class:`~repro.planning.whatif.WhatIfEngine` over this network.

        The engine routes the mesh once and answers failure what-ifs
        incrementally; project the scenario's true busy-period mean, any
        estimate, or a grown matrix through its failure cases::

            engine = scenario.planning()
            worst = engine.worst_case(scenario.busy_mean_matrix())

        Method-level planning comparisons live in
        :func:`repro.planning.sweep.failure_sweep`, which consumes the
        scenario directly.
        """
        from repro.planning.whatif import WhatIfEngine

        return WhatIfEngine(self.network, utilisation_threshold=utilisation_threshold)

    # ------------------------------------------------------------------
    # descriptive statistics used by the data-analysis figures
    # ------------------------------------------------------------------
    def total_traffic_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """``(timestamps_seconds, normalised_total_traffic)`` for Figure 1."""
        totals = self.day_series.total_traffic_series()
        peak = totals.max()
        if peak <= 0:
            raise TrafficError("scenario has no traffic")
        return self.day_series.timestamps(), totals / peak

    def describe(self) -> dict[str, float]:
        """Headline scenario numbers (PoPs, links, demands, traffic volume)."""
        busy = self.busy_mean_matrix()
        return {
            "num_pops": float(self.network.num_nodes),
            "num_links": float(self.network.num_links),
            "num_pairs": float(self.network.num_pairs),
            "busy_total_traffic": busy.total,
            "routing_rank": float(self.routing.rank()),
        }


@dataclass
class MeasuredScenario(Scenario):
    """A scenario whose observables come from the SNMP measurement pipeline.

    Built with :meth:`Scenario.measured`.  The true ``day_series`` remains
    the ground truth (``busy_series``, ``busy_mean_matrix`` and the runners'
    scoring are untouched), but :meth:`snapshot_problem` and
    :meth:`series_problem` hand the estimators the *measured* data instead
    of the consistent ``t = R s`` loads: link loads come from the polled
    link counters, and edge totals from the measured LSP matrix.  Jitter,
    UDP loss and the interval-length rate adjustment make the measured data
    inconsistent in exactly the way Section 5.1.2 of the paper describes.
    The collection runs once, on first access to measured data: one
    :meth:`~repro.measurement.collector.DistributedCollector.collect` over
    the day, whose rate array the measured series and link loads are read
    from.

    Attributes
    ----------
    jitter_std_seconds, loss_probability, num_pollers, measurement_seed,
    max_interpolated_fraction, fault_plan, counter_bits:
        Forwarded to the underlying
        :class:`~repro.measurement.collector.DistributedCollector`.
    """

    jitter_std_seconds: float = 0.0
    loss_probability: float = 0.0
    num_pollers: int = 3
    measurement_seed: Optional[int] = None
    max_interpolated_fraction: float = 1.0
    fault_plan: Optional[object] = None
    counter_bits: int = 64
    _collector: Optional[DistributedCollector] = field(default=None, repr=False)
    _measured_day: Optional[TrafficMatrixSeries] = field(default=None, repr=False)
    _measured_loads: Optional[np.ndarray] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # collection (lazy: runs once, on first access to measured data)
    # ------------------------------------------------------------------
    @property
    def collector(self) -> DistributedCollector:
        """The collector, running the day-long collection on first access."""
        if self._collector is None:
            with telemetry.span(
                "measurement.collect",
                scenario=self.name,
                jitter=self.jitter_std_seconds,
                loss=self.loss_probability,
            ):
                collector = DistributedCollector(
                    self.routing,
                    num_pollers=self.num_pollers,
                    interval_seconds=self.day_series.interval_seconds,
                    jitter_std_seconds=self.jitter_std_seconds,
                    loss_probability=self.loss_probability,
                    seed=self.measurement_seed,
                    max_interpolated_fraction=self.max_interpolated_fraction,
                    fault_plan=self.fault_plan,
                    counter_bits=self.counter_bits,
                )
                collector.collect(self.day_series)
            self._collector = collector
        return self._collector

    def measured_day_series(self) -> TrafficMatrixSeries:
        """The full measured LSP traffic-matrix series (one day)."""
        if self._measured_day is None:
            self._measured_day = self.collector.measured_traffic_series()
        return self._measured_day

    def measured_link_load_series(self) -> np.ndarray:
        """The full measured link-load series, shape ``(K_day, L)``."""
        if self._measured_loads is None:
            self._measured_loads = self.collector.measured_link_loads()
        return self._measured_loads

    def measured_busy_series(self) -> TrafficMatrixSeries:
        """The measured LSP series over the *true* busy window.

        The evaluation protocol fixes the window from the ground truth so
        that measured and consistent runs score the same interval.
        """
        return self.measured_day_series().window(self.busy_window_start(), self.busy_length)

    def _measured_busy_loads(self, length: Optional[int] = None) -> np.ndarray:
        start = self.busy_window_start()
        length = self.busy_length if length is None else length
        return self.measured_link_load_series()[start : start + length]

    # ------------------------------------------------------------------
    # observable data (measured instead of consistent)
    # ------------------------------------------------------------------
    def snapshot_problem(self, matrix: Optional[TrafficMatrix] = None) -> EstimationProblem:
        """Estimation problem built from measured busy-period data.

        Link loads are the busy-window mean of the *measured* link counters
        and the edge totals come from the measured LSP matrix.  Passing an
        explicit ``matrix`` falls back to the consistent computation on that
        matrix (the measured pipeline has no data for hypothetical
        snapshots).
        """
        if matrix is not None:
            return super().snapshot_problem(matrix)
        measured_mean = self.measured_busy_series().mean_matrix()
        origin_totals, destination_totals = self._edge_totals(measured_mean)
        return EstimationProblem(
            routing=self.routing,
            link_loads=self._measured_busy_loads().mean(axis=0),
            origin_totals=origin_totals,
            destination_totals=destination_totals,
        )

    def series_problem(
        self,
        series: Optional[TrafficMatrixSeries] = None,
        window_length: Optional[int] = None,
    ) -> EstimationProblem:
        """Series problem over the busy window, from measured data.

        The link-load series is the measured link counters (not
        ``t = R s``), and per-snapshot edge totals come from the measured
        LSP matrix.  Passing an explicit ``series`` falls back to the
        consistent computation on that series.
        """
        if series is not None:
            return super().series_problem(series=series, window_length=window_length)
        length = self.busy_length
        if window_length is not None:
            if not 0 < window_length <= self.busy_length:
                raise TrafficError(
                    f"window [0, {window_length}) outside series of length {self.busy_length}"
                )
            length = window_length
        measured_series = self.measured_busy_series().window(0, length)
        return self._series_problem_from(measured_series, self._measured_busy_loads(length))
