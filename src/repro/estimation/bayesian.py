"""Bayesian / regularised least-squares estimation (paper Section 4.2.3).

Modelling the prior knowledge of the traffic matrix as
``s ~ N(s^(p), sigma^2 I)`` and the link measurements as
``t = R s + v`` with unit-variance white noise, the maximum a posteriori
estimate solves

    minimise ``|| R s - t ||_2^2 + sigma^{-2} || s - s^(p) ||_2^2``
    subject to ``s >= 0``

(the non-negativity constraint is added because demands cannot be negative).
The *regularisation parameter* swept in the paper's Figure 13/15 is
``sigma^2``: small values trust the prior, large values trust the link
measurements and only use the prior to select among the solutions of
``R s = t``.

The program is strictly convex.  A snapshot is solved exactly through its
link-space dual (:func:`repro.optimize.dual.solve_dual`); a whole series
with a shared normal-equations factorisation
(:func:`repro.optimize.nnls.nnls_normal_equations_batch`).
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
from repro.optimize.dual import L2Map, solve_dual
from repro.optimize.nnls import nnls_normal_equations_batch

__all__ = ["BayesianEstimator"]

#: Above this many pairs the factor-once series path (a dense ``(P, P)``
#: Gram: quadratic memory, cubic factorisation) gives way to the generic
#: loop of link-space dual solves.
_GRAM_PAIR_LIMIT = 3000


@register()
class BayesianEstimator(Estimator):
    """MAP estimation with a Gaussian prior around a prior traffic matrix.

    Parameters
    ----------
    regularization:
        The parameter ``sigma^2``; larger values emphasise the link-load
        measurements over the prior.  Must be positive.
    prior:
        Either an explicit prior vector or the name of a prior constructor
        understood by :func:`repro.estimation.priors.make_prior`
        (``"gravity"``, ``"wcb"``, ``"uniform"``).
    """

    name = "bayesian"

    def __init__(
        self,
        regularization: float = 1000.0,
        prior: str | np.ndarray = "gravity",
    ) -> None:
        if regularization <= 0:
            raise EstimationError("regularization (sigma^2) must be positive")
        self.regularization = float(regularization)
        self.prior = prior

    # ------------------------------------------------------------------
    def _prior_vector(self, problem: EstimationProblem) -> np.ndarray:
        if isinstance(self.prior, str):
            return make_prior(problem, self.prior)
        prior = np.asarray(self.prior, dtype=float)
        if prior.shape != (problem.num_pairs,):
            raise EstimationError(
                f"prior has shape {prior.shape}, expected ({problem.num_pairs},)"
            )
        if np.any(prior < 0):
            raise EstimationError("prior demands must be non-negative")
        return prior

    def estimate(self, problem: EstimationProblem) -> EstimationResult:
        """Solve the regularised non-negative least-squares problem.

        Newton steps on the link-space dual
        (:func:`repro.optimize.dual.solve_dual` with an
        :class:`~repro.optimize.dual.L2Map`): one multiplier per link, the
        minimiser ``s = max(0, p - R'y / (2 sigma^{-2}))``, CSR products
        throughout, and the duality gap as the convergence certificate.
        """
        prior = self._prior_vector(problem)
        solution = solve_dual(
            problem.routing, problem.snapshot, L2Map(prior, 1.0 / self.regularization)
        )
        values = solution.demands
        return self._result(
            problem,
            values,
            regularization=self.regularization,
            prior_kind=self.prior if isinstance(self.prior, str) else "explicit",
            residual_norm=float(np.linalg.norm(problem.routing.matvec(values) - problem.snapshot)),
            prior_distance=float(np.linalg.norm(values - prior)),
            iterations=solution.iterations,
            converged=solution.converged,
            duality_gap=solution.duality_gap,
        )

    # ------------------------------------------------------------------
    # batched path
    # ------------------------------------------------------------------
    def _prior_series(self, problem: EstimationProblem) -> Optional[np.ndarray]:
        """Per-snapshot priors ``(K, P)``, or ``None`` when only the generic
        per-snapshot loop can reproduce them (the WCB prior solves LPs)."""
        num_snapshots = problem.series.shape[0]
        if not isinstance(self.prior, str):
            prior = self._prior_vector(problem)
            return np.tile(prior, (num_snapshots, 1))
        kind = self.prior.lower()
        if kind == "gravity":
            return gravity_vector_series(problem)
        if kind == "uniform":
            totals = problem.total_traffic_series()
            return np.repeat(totals[:, None] / problem.num_pairs, problem.num_pairs, axis=1)
        return None

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Factor the normal equations once and solve every snapshot.

        In normal-equations form the regularised problem has the positive
        definite Hessian ``R'R + sigma^{-2} I`` shared by every snapshot, so
        one factorisation serves all ``K`` right-hand sides:
        :func:`repro.optimize.nnls.nnls_normal_equations_batch` inverts it
        once and enforces non-negativity per snapshot with warm-started
        block principal pivoting.  Results match the per-snapshot
        :meth:`estimate` loop (both solve the same strictly convex program
        exactly).
        """
        if problem.num_pairs > _GRAM_PAIR_LIMIT:
            # The factor-once path needs a dense (P, P) Gram; above the
            # limit the generic loop of dual solves is both faster and
            # O(nnz + L^2) in memory.
            return super().estimate_series(problem)
        priors = self._prior_series(problem)
        if priors is None:
            return super().estimate_series(problem)
        series = problem.series
        routing = problem.routing
        num_pairs = problem.num_pairs
        weight_sq = 1.0 / self.regularization
        gram = routing.gram() + weight_sq * np.eye(num_pairs)
        rhs = routing.rmatmat(series.T) + weight_sq * priors.T  # (P, K)
        solutions, converged = nnls_normal_equations_batch(gram, rhs)
        estimates = solutions.T
        fallback = np.flatnonzero(~converged)
        for index in fallback:  # pragma: no cover - PD gram, pivoting always converges
            estimates[index] = self.estimate(problem.at_snapshot(index)).vector
        return self._series_result(
            problem,
            estimates,
            batched=True,
            regularization=self.regularization,
            prior_kind=self.prior if isinstance(self.prior, str) else "explicit",
            num_snapshots=int(series.shape[0]),
            num_fallback=int(fallback.size),
        )
