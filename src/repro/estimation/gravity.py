"""Gravity models for traffic-matrix estimation (paper Section 4.1).

The simple gravity model predicts the demand from node ``n`` to node ``m``
as proportional to the product of the total traffic entering the network at
``n`` and the total traffic exiting at ``m``:

    ``s_nm = C * t_e(n) * t_x(m)``

with ``C`` chosen so the estimated total equals the measured total traffic.
With ``C = 1 / sum_m t_x(m)`` this is equivalent to the fanout model
``alpha_nm = t_x(m) / sum_m t_x(m)``.

The generalised gravity model additionally forces demands between two
peering nodes to zero; the paper focuses on the simple model because the
peering information of the measured network was not available, but the
generalised form is implemented here for completeness.

Gravity estimates ignore the interior link loads entirely and are generally
*not* consistent with them; they are most useful as the prior of the
regularised estimators (tomogravity).  Both models are closed forms, not
iterative solves, so their results carry ``closed_form: True`` in place of
a certificate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import EstimationError
from repro.estimation.base import (
    EstimationProblem,
    EstimationResult,
    Estimator,
    SeriesEstimationResult,
)
from repro.estimation.registry import register
from repro.topology.elements import NodeRole
from repro.topology.network import Network

__all__ = [
    "SimpleGravityEstimator",
    "GeneralizedGravityEstimator",
    "gravity_vector",
    "gravity_vector_series",
]


_REQUIRES_TOTALS = (
    "gravity estimation requires origin_totals and destination_totals "
    "(the edge-link measurements t_e(n) and t_x(m))"
)


def gravity_vector(
    problem: EstimationProblem,
    excluded_pairs: Optional[set] = None,
) -> np.ndarray:
    """Raw (unnormalised-then-rescaled) gravity estimate as a demand vector.

    Parameters
    ----------
    problem:
        The estimation problem; its edge totals drive the model.
    excluded_pairs:
        Pairs forced to zero (the peering-to-peering exclusions of the
        generalised model).

    The result is scaled so its total equals the measured total traffic
    (the sum of the origin totals).  The exclusion-free form is cached in
    the problem's shared workspace (and returned read-only), so the many
    estimators that use a gravity prior pay the model once per problem.
    """

    def compute() -> np.ndarray:
        if problem.origin_totals is None or problem.destination_totals is None:
            raise EstimationError(_REQUIRES_TOTALS)
        _, _, origin_cols, destination_cols = problem.pair_positions()
        values = (
            problem.origin_totals[origin_cols] * problem.destination_totals[destination_cols]
        )
        if excluded_pairs:
            mask = np.fromiter(
                (pair in excluded_pairs for pair in problem.pairs),
                dtype=bool,
                count=len(problem.pairs),
            )
            values[mask] = 0.0
        total = values.sum()
        measured_total = problem.total_traffic()
        if total <= 0:
            if measured_total > 0:
                raise EstimationError(
                    "gravity model produced a zero matrix for non-zero traffic"
                )
            return np.zeros(len(problem.pairs))
        return values * (measured_total / total)

    if excluded_pairs:
        return compute()

    def cached() -> np.ndarray:
        values = compute()
        values.setflags(write=False)
        return values

    return problem.shared(("gravity_vector",), cached)


def gravity_vector_series(
    problem: EstimationProblem,
    excluded_pairs: Optional[set] = None,
) -> np.ndarray:
    """Vectorised gravity estimates for every snapshot of a series.

    Returns a ``(K, num_pairs)`` array whose row ``k`` equals
    ``gravity_vector(problem.at_snapshot(k))``: per-snapshot edge totals are
    taken from the totals series when present and fall back to the
    problem-level totals otherwise.  All snapshots are evaluated in a
    handful of array operations — no per-snapshot Python loop — which is
    what makes the batched gravity/Kruithof/Bayesian paths cheap.  The
    exclusion-free batch is cached (read-only) in the problem's shared
    workspace, so a sweep whose methods all use gravity priors builds it
    once.
    """
    if not excluded_pairs:

        def cached() -> np.ndarray:
            values = _gravity_series_uncached(problem, set())
            values.setflags(write=False)
            return values

        return problem.shared(("gravity_vector_series",), cached)
    return _gravity_series_uncached(problem, set(excluded_pairs))


def _gravity_series_uncached(problem: EstimationProblem, excluded_pairs: set) -> np.ndarray:
    origin_totals, destination_totals = problem.totals_by_snapshot()
    if origin_totals is None or destination_totals is None:
        raise EstimationError(_REQUIRES_TOTALS)
    _, _, origin_codes, destination_codes = problem.pair_positions()
    values = origin_totals[:, origin_codes] * destination_totals[:, destination_codes]
    if excluded_pairs:
        mask = np.array([pair in excluded_pairs for pair in problem.pairs])
        values[:, mask] = 0.0
    totals = values.sum(axis=1)
    measured = problem.total_traffic_series()
    bad = (totals <= 0) & (measured > 0)
    if np.any(bad):
        raise EstimationError("gravity model produced a zero matrix for non-zero traffic")
    scale = np.where(totals > 0, measured / np.where(totals > 0, totals, 1.0), 0.0)
    return values * scale[:, None]


@register()
class SimpleGravityEstimator(Estimator):
    """The simple gravity model ``s_nm = C t_e(n) t_x(m)``."""

    name = "gravity"

    def estimate(self, problem: EstimationProblem) -> EstimationResult:
        """Estimate demands from edge totals only (interior links are ignored)."""
        values = gravity_vector(problem)
        return self._result(
            problem, values, closed_form=True, normalisation_total=float(values.sum())
        )

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Vectorised batch: every snapshot's totals evaluated in one expression."""
        estimates = gravity_vector_series(problem)
        return self._series_result(problem, estimates, batched=True, closed_form=True)


@register()
class GeneralizedGravityEstimator(Estimator):
    """Gravity model with peer-to-peer demands forced to zero.

    Parameters
    ----------
    network:
        Network whose node roles identify the peering PoPs.  Alternatively
        ``peering_nodes`` can be given explicitly.
    peering_nodes:
        Explicit set of peering node names (overrides the network roles).
    """

    name = "generalized-gravity"

    def __init__(
        self,
        network: Optional[Network] = None,
        peering_nodes: Optional[set[str]] = None,
    ) -> None:
        if network is None and peering_nodes is None:
            raise EstimationError(
                "generalised gravity needs a network or an explicit peering node set"
            )
        if peering_nodes is not None:
            self.peering_nodes = set(peering_nodes)
        else:
            # The guard above rules out both being None.
            assert network is not None
            self.peering_nodes = {
                node.name for node in network.nodes if node.role is NodeRole.PEERING
            }

    def _excluded(self, problem: EstimationProblem) -> set:
        return {
            pair
            for pair in problem.pairs
            if pair.origin in self.peering_nodes and pair.destination in self.peering_nodes
        }

    def estimate(self, problem: EstimationProblem) -> EstimationResult:
        """Estimate demands, zeroing every peer-to-peer pair."""
        excluded = self._excluded(problem)
        values = gravity_vector(problem, excluded_pairs=excluded)
        return self._result(
            problem,
            values,
            closed_form=True,
            excluded_pairs=len(excluded),
            normalisation_total=float(values.sum()),
        )

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Vectorised batch with the peer-to-peer exclusions applied."""
        excluded = self._excluded(problem)
        estimates = gravity_vector_series(problem, excluded_pairs=excluded)
        return self._series_result(
            problem, estimates, batched=True, closed_form=True, excluded_pairs=len(excluded)
        )
