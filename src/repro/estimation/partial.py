"""Combining tomography with direct measurements (paper Section 5.3.6).

The final experiment of the paper asks how much the estimation error drops
when a handful of demands are measured *directly* (e.g. with dedicated LSP
counters or NetFlow on selected routers) while the rest are still inferred
from link loads.  Measuring a demand removes it from the unknowns: its
contribution is subtracted from the link loads and from the edge totals, and
the estimator runs on the reduced problem.

This module provides:

* :func:`reduce_problem` — build the reduced estimation problem given a set
  of directly measured demands;
* :class:`DirectMeasurementCombiner` — wrap any base estimator so that it
  accepts direct measurements and returns a full-size estimate;
* :func:`greedy_measurement_selection` — the paper's exhaustive greedy
  search: at every step measure the demand whose measurement reduces the
  error metric the most;
* :func:`largest_demand_selection` — the practical alternative also
  discussed in the paper: measure the largest (estimated) demands first.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.estimation.base import EstimationProblem, EstimationResult, Estimator
from repro.routing.routing_matrix import RoutingMatrix
from repro.topology.elements import NodePair
from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "reduce_problem",
    "DirectMeasurementCombiner",
    "greedy_measurement_selection",
    "largest_demand_selection",
]


def _measured_positions(
    problem: EstimationProblem, measured: Mapping[NodePair, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the measured pairs in ``problem.pairs`` and their values."""
    positions = problem.pairs.positions()
    unknown = [pair for pair in measured if pair not in positions]
    if unknown:
        raise EstimationError(f"measured pairs not in the problem: {sorted(map(str, unknown))}")
    for pair, value in measured.items():
        if value < 0:
            raise EstimationError(f"measured demand for {pair} is negative")
    index = np.array([positions[pair] for pair in measured], dtype=np.intp)
    return index, np.array(list(measured.values()), dtype=float)


def reduce_problem(
    problem: EstimationProblem, measured: Mapping[NodePair, float]
) -> EstimationProblem:
    """Remove directly measured demands from an estimation problem.

    The measured demands' contribution ``R_measured @ s_measured`` is
    subtracted from the link loads (snapshot and series) and from the edge
    totals (snapshot and series), and the corresponding columns are dropped
    from the routing matrix's CSR storage.  The returned problem
    estimates only the remaining pairs.
    """
    if not measured:
        return problem
    index, values = _measured_positions(problem, measured)
    routing = problem.routing
    demands = np.zeros(problem.num_pairs)
    demands[index] = values
    measured_loads = routing.matvec(demands)
    keep = np.ones(problem.num_pairs, dtype=bool)
    keep[index] = False
    kept = np.flatnonzero(keep)
    reduced_routing = RoutingMatrix(
        routing.native[:, kept],
        routing.link_names,
        [problem.pairs[i] for i in kept],
        network=routing.network,
    )

    link_loads = None
    if problem.link_loads is not None:
        link_loads = np.maximum(problem.link_loads - measured_loads, 0.0)
    series = None
    if problem.link_load_series is not None:
        series = np.maximum(problem.link_load_series - measured_loads[None, :], 0.0)

    _, _, origin_codes, destination_codes = problem.pair_positions()
    reduced_origins, reduced_destinations, kept_origin_codes, kept_destination_codes = (
        reduced_routing.pairs.codes()
    )

    def reduce_totals(
        totals: Optional[np.ndarray], codes: np.ndarray, num_labels: int, kept_codes: np.ndarray
    ) -> Optional[np.ndarray]:
        """Totals (labels on the last axis) less the measured demands, on the reduced labels."""
        if totals is None:
            return None
        lowered = totals - np.bincount(codes[index], weights=values, minlength=totals.shape[-1])
        # Reduced label c is the original label of the kept pairs coded c.
        columns = np.empty(num_labels, dtype=np.intp)
        columns[kept_codes] = codes[kept]
        return np.maximum(lowered, 0.0)[..., columns]

    origin_args = (origin_codes, len(reduced_origins), kept_origin_codes)
    destination_args = (destination_codes, len(reduced_destinations), kept_destination_codes)
    return EstimationProblem(
        routing=reduced_routing,
        link_loads=link_loads,
        link_load_series=series,
        origin_totals=reduce_totals(problem.origin_totals, *origin_args),
        destination_totals=reduce_totals(problem.destination_totals, *destination_args),
        origin_totals_series=reduce_totals(problem.origin_totals_series, *origin_args),
        destination_totals_series=reduce_totals(
            problem.destination_totals_series, *destination_args
        ),
    )


class DirectMeasurementCombiner(Estimator):
    """Wrap a base estimator so it can exploit directly measured demands.

    Parameters
    ----------
    base_estimator:
        Any snapshot estimator (entropy, Bayesian, ...).
    measured:
        Mapping from pair to its directly measured demand.
    """

    def __init__(self, base_estimator: Estimator, measured: Mapping[NodePair, float]) -> None:
        self.base_estimator = base_estimator
        self.measured = dict(measured)
        self.name = f"{base_estimator.name}+direct"

    def estimate(self, problem: EstimationProblem) -> EstimationResult:
        """Estimate the unmeasured demands and splice the measured ones back in."""
        index, measured_values = _measured_positions(problem, self.measured)
        values = np.zeros(problem.num_pairs)
        values[index] = measured_values
        reduced = reduce_problem(problem, self.measured)
        if reduced.num_pairs == 0:
            return self._result(problem, values, measured_pairs=len(self.measured))
        partial_result = self.base_estimator.estimate(reduced)
        unmeasured = np.ones(problem.num_pairs, dtype=bool)
        unmeasured[index] = False
        values[unmeasured] = partial_result.vector
        return self._result(
            problem,
            values,
            measured_pairs=len(self.measured),
            base_method=self.base_estimator.name,
            base_diagnostics=partial_result.diagnostics,
        )


def _evaluate(
    estimator: Estimator,
    problem: EstimationProblem,
    measured: Mapping[NodePair, float],
    error_metric: Callable[[TrafficMatrix], float],
) -> float:
    combiner = DirectMeasurementCombiner(estimator, measured)
    return float(error_metric(combiner.estimate(problem).estimate))


def greedy_measurement_selection(
    problem: EstimationProblem,
    truth: TrafficMatrix,
    estimator: Estimator,
    error_metric: Callable[[TrafficMatrix], float],
    max_measurements: int,
    candidates: Optional[Sequence[NodePair]] = None,
) -> list[tuple[NodePair, float]]:
    """Greedy exhaustive selection of demands to measure (paper Figure 16).

    At each step every remaining candidate demand is tried: it is measured
    (taking its true value from ``truth``), the estimator re-runs on the
    reduced problem, and the candidate yielding the lowest error is kept.

    Parameters
    ----------
    problem:
        The estimation problem.
    truth:
        The true traffic matrix (measured values are read from it).
    estimator:
        Base estimator (e.g. the entropy method as in the paper).
    error_metric:
        Callable mapping an estimated traffic matrix to an error value
        (typically the MRE against ``truth``).
    max_measurements:
        Number of demands to select.
    candidates:
        Optional candidate subset; defaults to all pairs.

    Returns
    -------
    list of ``(pair, error_after_measuring_it)`` in selection order.
    """
    if max_measurements < 1:
        raise EstimationError("max_measurements must be at least 1")
    remaining = list(candidates) if candidates is not None else list(problem.pairs)
    selected: dict[NodePair, float] = {}
    history: list[tuple[NodePair, float]] = []
    for _ in range(min(max_measurements, len(remaining))):
        best_pair: Optional[NodePair] = None
        best_error = float("inf")
        for pair in remaining:
            trial = dict(selected)
            trial[pair] = truth.demand(pair)
            error = _evaluate(estimator, problem, trial, error_metric)
            if error < best_error:
                best_error, best_pair = error, pair
        if best_pair is None:
            # Every candidate scored infinity — measuring more demands
            # cannot improve anything, so stop early.
            break
        selected[best_pair] = truth.demand(best_pair)
        remaining.remove(best_pair)
        history.append((best_pair, best_error))
    return history


def largest_demand_selection(
    problem: EstimationProblem,
    truth: TrafficMatrix,
    estimator: Estimator,
    error_metric: Callable[[TrafficMatrix], float],
    max_measurements: int,
) -> list[tuple[NodePair, float]]:
    """Measure the largest *estimated* demands first (the practical strategy).

    The paper notes that most estimators rank demands accurately, so
    identifying the largest estimated demands and measuring those is a
    viable approach even though it is not optimal for the relative-error
    metric.  Returns the same ``(pair, error)`` history format as
    :func:`greedy_measurement_selection`.
    """
    if max_measurements < 1:
        raise EstimationError("max_measurements must be at least 1")
    baseline = estimator.estimate(problem).estimate
    ranked = baseline.top_demands(max_measurements)
    selected: dict[NodePair, float] = {}
    history: list[tuple[NodePair, float]] = []
    for pair in ranked:
        selected[pair] = truth.demand(pair)
        error = _evaluate(estimator, problem, selected, error_metric)
        history.append((pair, error))
    return history
