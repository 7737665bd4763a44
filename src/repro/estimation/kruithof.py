"""Kruithof's projection method (iterative proportional fitting).

Kruithof's 1937 method adjusts a prior traffic matrix so that its row and
column sums match the measured totals of traffic entering and leaving each
node.  Krupp later showed the iteration computes the matrix minimising the
Kullback-Leibler distance to the prior subject to those constraints, and
generalised it to arbitrary linear constraints ``R s = t`` — the direct
ancestor of today's entropy-regularised estimators.

:class:`KruithofEstimator` is the classical biproportional fit of a prior
matrix to the measured edge totals ``t_e(n)`` / ``t_x(m)``; it never looks
at interior links.  The fit is ``diag(a) P diag(b)`` for the prior table
``P``, so :func:`~repro.optimize.ipf.kruithof_scaling` iterates only the two
scaling vectors and the estimate is ``a[origin] * p * b[destination]``.
The priors enter the table, and the fit leaves it, through each pair's
flat cell (:meth:`~repro.topology.elements.PairIndex.cells`), one 1-D
scatter and one 1-D gather.  Every fit starts from the prior: ``estimate`` scales a
stack of one, ``estimate_series`` a stack of every snapshot.  Krupp's
generalisation, which uses every link measurement, is
:class:`~repro.estimation.entropy.KLProjectionEstimator`.
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
from repro.estimation.gravity import gravity_vector_series
from repro.estimation.priors import make_prior
from repro.estimation.registry import register
from repro.optimize.ipf import kruithof_scaling

__all__ = ["KruithofEstimator"]


def _resolve_prior(problem: EstimationProblem, prior: str | np.ndarray) -> np.ndarray:
    if isinstance(prior, str):
        return make_prior(problem, prior)
    vector = np.asarray(prior, dtype=float)
    if vector.shape != (problem.num_pairs,):
        raise EstimationError(
            f"prior has shape {vector.shape}, expected ({problem.num_pairs},)"
        )
    if np.any(vector < 0):
        raise EstimationError("prior demands must be non-negative")
    return vector


@register()
class KruithofEstimator(Estimator):
    """Classical Kruithof biproportional fitting to edge totals.

    Parameters
    ----------
    prior:
        Prior vector or prior name (default ``"uniform"``: Kruithof's method
        is often started from a uniform matrix when no better information
        exists; use ``"gravity"`` to adjust a gravity estimate).
    max_iterations, tolerance:
        Forwarded to :func:`repro.optimize.ipf.kruithof_scaling`.

    The diagnostics carry the fit's certificate, ``relative_violation``:
    the largest violation of an edge total divided by ``max(1, total
    traffic)``, over every fitted snapshot.  ``converged`` holds exactly
    when it is below ``tolerance``; ``max_violation`` is the same
    violation unscaled.
    """

    name = "kruithof"

    def __init__(
        self,
        prior: str | np.ndarray = "uniform",
        max_iterations: int = 500,
        tolerance: float = 1e-9,
    ) -> None:
        self.prior = prior
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)

    def _fit(
        self,
        problem: EstimationProblem,
        priors: np.ndarray,
        row_targets: np.ndarray,
        column_targets: np.ndarray,
    ) -> tuple[np.ndarray, dict]:
        """Scale each row of the ``(K, P)`` prior stack to its snapshot's totals.

        Returns the ``(K, P)`` fit ``a[origin] * p * b[destination]`` and
        its diagnostics.
        """
        origins, destinations, _, _ = problem.pair_positions()
        cells = problem.routing.pairs.cells()
        shape = (len(priors), len(origins), len(destinations))
        # Each pair's prior lands in its cell of the flat table, and its fit
        # is read back from the same cell of the scaled table.
        table = np.zeros((shape[0], shape[1] * shape[2]))
        table[:, cells] = priors
        prior_stack = table.reshape(shape)
        fit = kruithof_scaling(
            prior_stack,
            row_targets,
            column_targets,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
        )
        prior_stack *= fit.row_factors[:, :, None]
        prior_stack *= fit.column_factors[:, None, :]
        return table[:, cells], dict(
            iterations=fit.iterations,
            converged=fit.converged,
            max_violation=fit.max_violation,
            relative_violation=fit.relative_violation,
            prior_kind=self.prior if isinstance(self.prior, str) else "explicit",
        )

    def estimate(self, problem: EstimationProblem) -> EstimationResult:
        """Fit the prior to the measured origin/destination totals."""
        if problem.origin_totals is None or problem.destination_totals is None:
            raise EstimationError(
                "Kruithof's method needs origin_totals and destination_totals"
            )
        prior = _resolve_prior(problem, self.prior)
        values, diagnostics = self._fit(
            problem,
            prior[None, :],
            problem.origin_totals[None, :],
            problem.destination_totals[None, :],
        )
        return self._result(problem, values[0], **diagnostics)

    # ------------------------------------------------------------------
    # batched path
    # ------------------------------------------------------------------
    def _prior_series(self, problem: EstimationProblem) -> Optional[np.ndarray]:
        """Per-snapshot prior vectors ``(K, P)``; ``None`` for the WCB prior."""
        num_snapshots = problem.series.shape[0]
        if not isinstance(self.prior, str):
            return np.tile(_resolve_prior(problem, self.prior), (num_snapshots, 1))
        kind = self.prior.lower()
        if kind == "uniform":
            if problem.origin_totals_series is None and problem.origin_totals is None:
                return None
            totals = problem.total_traffic_series()
            return np.repeat(totals[:, None] / problem.num_pairs, problem.num_pairs, axis=1)
        if kind == "gravity":
            return gravity_vector_series(problem)
        return None

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Batched biproportional fit: every snapshot iterated as one stack."""
        row_targets, column_targets = problem.totals_by_snapshot()
        if row_targets is None or column_targets is None:
            raise EstimationError("Kruithof's method needs origin_totals and destination_totals")
        priors = self._prior_series(problem)
        if priors is None:
            return super().estimate_series(problem)
        values, diagnostics = self._fit(problem, priors, row_targets, column_targets)
        return self._series_result(problem, values, batched=True, **diagnostics)
