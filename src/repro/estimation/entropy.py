"""Entropy-regularised (Kullback-Leibler) estimation (paper Section 4.2.1).

Following Zhang et al.'s information-theoretic formulation, the entropy
approach estimates the traffic matrix by

    minimise ``|| R s - t ||_2^2 + sigma^{-2} D(s || s^(p))``
    subject to ``s >= 0``

where ``D`` is the (generalised) Kullback-Leibler distance to the prior
``s^(p)``.  Compared to projecting the prior exactly onto ``R s = t``
(Kruithof/Krupp), this regularised form still produces an estimate when the
linear system is inconsistent, and the parameter ``sigma^2`` tunes how much
the link measurements are trusted — it is the regularisation parameter swept
in the paper's Figure 13.

The objective is strictly convex on the support of the prior.  The
estimator solves it through its link-space dual
(:func:`repro.optimize.dual.solve_dual` with a :class:`~repro.optimize.dual.KLMap`):
Newton steps on one multiplier per link, whose minimiser
``s = p exp(-R'y / c)`` keeps demands with a zero prior at exactly zero, as
the KL convention requires.  The result carries the duality gap as its
convergence certificate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import EstimationError
from repro.estimation.base import EstimationProblem, EstimationResult, Estimator
from repro.estimation.priors import make_prior
from repro.estimation.registry import register
from repro.optimize.dual import KLMap, solve_dual
from repro.optimize.ipf import kl_divergence

__all__ = ["EntropyEstimator"]


@register()
class EntropyEstimator(Estimator):
    """Estimation by least-squares fit plus KL-distance regularisation.

    Parameters
    ----------
    regularization:
        The parameter ``sigma^2``; larger values emphasise the link-load
        measurements, smaller values pull the estimate towards the prior.
    prior:
        Explicit prior vector or a prior name understood by
        :func:`repro.estimation.priors.make_prior`.
    max_iterations:
        Cap on the dual solver's Newton steps.
    scale_invariant:
        When ``True`` (default) the KL term is computed on demands scaled by
        the total prior traffic, which keeps the trade-off between the two
        objective terms comparable across networks of different absolute
        traffic volumes (the paper sweeps one dimensionless parameter).
    """

    name = "entropy"

    def __init__(
        self,
        regularization: float = 1000.0,
        prior: str | np.ndarray = "gravity",
        max_iterations: int = 100,
        scale_invariant: bool = True,
    ) -> None:
        if regularization <= 0:
            raise EstimationError("regularization (sigma^2) must be positive")
        if max_iterations <= 0:
            raise EstimationError("max_iterations must be positive")
        self.regularization = float(regularization)
        self.prior = prior
        self.max_iterations = int(max_iterations)
        self.scale_invariant = bool(scale_invariant)
        self._warm_start: Optional[np.ndarray] = None

    def set_warm_start(self, vector: np.ndarray) -> None:
        """Use ``vector`` as the next solve's starting point.

        Called by the generic :meth:`~repro.estimation.base.Estimator.estimate_series`
        loop with the previous snapshot's solution.  The objective is
        strictly convex on its support, so the warm start only changes how
        many Newton steps the dual solve takes, not which minimiser it
        reaches.  One-shot: it applies to the next :meth:`estimate` call only.
        """
        self._warm_start = np.asarray(vector, dtype=float).copy()

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
        """Minimise the regularised objective by Newton steps on its link-space dual."""
        prior = self._prior_vector(problem)
        warm_start = self._warm_start
        self._warm_start = None
        if not np.any(prior > 0):
            # A zero prior forces a zero estimate (KL keeps zeros at zero).
            return self._result(problem, np.zeros(problem.num_pairs), prior_kind="zero")

        # Optional scale normalisation keeps sigma^2 dimensionless.
        scale = float(prior.sum()) if self.scale_invariant else 1.0
        solution = solve_dual(
            problem.routing,
            problem.snapshot,
            KLMap(prior, scale / self.regularization),
            start=warm_start,
            max_iterations=self.max_iterations,
        )
        values = solution.demands
        return self._result(
            problem,
            values,
            regularization=self.regularization,
            prior_kind=self.prior if isinstance(self.prior, str) else "explicit",
            residual_norm=float(np.linalg.norm(problem.routing.matvec(values) - problem.snapshot)),
            kl_to_prior=kl_divergence(values, prior),
            iterations=solution.iterations,
            converged=solution.converged,
            duality_gap=solution.duality_gap,
        )
