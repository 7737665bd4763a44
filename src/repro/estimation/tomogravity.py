"""Tomogravity convenience estimators.

"Tomogravity" (Zhang et al.) is the combination the paper finds most
practical: a gravity prior refined by a tomographic (link-load) fit.  The
library expresses it as an entropy or Bayesian estimator with a gravity
prior; this module packages the combination behind a single class so that
applications can run the recommended pipeline with one call, and adds a
small helper that sweeps the regularisation parameter and picks the value
minimising the link-load residual (a proxy usable without ground truth).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.estimation.base import (
    EstimationProblem,
    EstimationResult,
    Estimator,
    SeriesEstimationResult,
)
from repro.estimation.bayesian import BayesianEstimator
from repro.estimation.entropy import EntropyEstimator
from repro.estimation.registry import register

__all__ = ["TomogravityEstimator", "sweep_regularization"]


@register()
class TomogravityEstimator(Estimator):
    """Gravity prior + regularised tomographic refinement in one call.

    Parameters
    ----------
    flavour:
        ``"entropy"`` (Kullback-Leibler regulariser, the original
        tomogravity formulation) or ``"bayesian"`` (quadratic regulariser).
    regularization:
        The ``sigma^2`` parameter of the underlying estimator.
    prior:
        Prior name or vector forwarded to the underlying estimator
        (default ``"gravity"``, which is what makes it tomogravity).
    """

    name = "tomogravity"

    def __init__(
        self,
        flavour: str = "entropy",
        regularization: float = 1000.0,
        prior: str | np.ndarray = "gravity",
    ) -> None:
        if flavour not in ("entropy", "bayesian"):
            raise EstimationError(f"unknown tomogravity flavour {flavour!r}")
        self.flavour = flavour
        if flavour == "entropy":
            self._inner: Estimator = EntropyEstimator(regularization=regularization, prior=prior)
        else:
            self._inner = BayesianEstimator(regularization=regularization, prior=prior)

    def estimate(self, problem: EstimationProblem) -> EstimationResult:
        """Run the underlying regularised estimator with the gravity prior."""
        result = self._inner.estimate(problem)
        diagnostics = dict(result.diagnostics)
        diagnostics["flavour"] = self.flavour
        return EstimationResult(estimate=result.estimate, method=self.name, diagnostics=diagnostics)

    def set_warm_start(self, vector: np.ndarray) -> None:
        """Use ``vector`` as the next solve's starting point (one-shot).

        Forwarded to the wrapped entropy/Bayesian estimator, which is what
        actually runs the solver.  Without this forwarding the generic
        series loop's ``getattr(self, "set_warm_start", ...)`` probe finds
        nothing and tomogravity silently loses the warm-started batched
        path the README advertises.
        """
        self._inner.set_warm_start(vector)  # type: ignore[attr-defined]

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Delegate to the inner estimator's batched path.

        With the ``"bayesian"`` flavour this inherits the factor-once
        Cholesky solve; the entropy flavour runs the generic loop of
        warm-started dual solves.
        """
        result = self._inner.estimate_series(problem)
        diagnostics = dict(result.diagnostics)
        diagnostics["flavour"] = self.flavour
        return SeriesEstimationResult(
            estimates=result.estimates,
            pairs=result.pairs,
            method=self.name,
            diagnostics=diagnostics,
        )


def sweep_regularization(
    problem: EstimationProblem,
    regularizations: Sequence[float],
    flavour: str = "entropy",
    prior: str | np.ndarray = "gravity",
) -> list[tuple[float, EstimationResult]]:
    """Run the tomogravity estimator for every regularisation value.

    Returns the list of ``(regularization, result)`` pairs in input order;
    the caller can score them against ground truth (as the paper's
    Figure 13 does) or pick the one with the smallest link residual.
    """
    if not regularizations:
        raise EstimationError("need at least one regularization value")
    results = []
    for value in regularizations:
        estimator = TomogravityEstimator(flavour=flavour, regularization=float(value), prior=prior)
        results.append((float(value), estimator.estimate(problem)))
    return results
