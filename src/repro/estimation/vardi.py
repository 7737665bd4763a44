"""Vardi's moment-matching estimator under the Poisson model (Section 4.2.2).

Vardi assumes Poisson demands ``s_p ~ Poisson(lambda_p)``, which ties the
first and second moments of the link loads to the same intensities:

    ``E{t}   = R lambda``
    ``Cov{t} = R diag(lambda) R'``.

Given a time series of link-load measurements, the sample mean ``t_hat`` and
sample covariance ``Sigma_hat`` are matched against these expressions.
Because observed moments are noisy (and the Poisson assumption only
approximate), exact matching rarely has a solution; following the paper we
minimise the least-squares discrepancy

    minimise ``|| R lambda - t_hat ||_2^2
               + sigma^{-2} || R diag(lambda) R' - Sigma_hat ||_F^2``
    subject to ``lambda >= 0``

where ``sigma^{-2}`` in (0, 1] expresses faith in the Poisson assumption
(``sigma^{-2} = 1`` trusts it fully, values near zero lean on the first
moment).

Both terms are quadratic in ``lambda``; using ``<r_p r_p', r_q r_q'> =
(r_p' r_q)^2`` the combined objective reduces to the non-negative quadratic
program ``min lambda' H lambda - 2 h' lambda`` with Hessian ``H = R'R + w
(R'R)^{.2}`` (elementwise square).  ``H`` is positive definite for
``w > 0``: factored as ``L L'``, the program is the least-squares problem
``min || L' lambda - L^{-1} h ||^2`` over ``lambda >= 0``, which
:func:`repro.optimize.nnls.nnls_active_set` (Lawson-Hanson) solves exactly.
The estimate reports the KKT residual of that solve as its certificate.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.errors import EstimationError, SolverError
from repro.estimation.base import (
    EstimationProblem,
    EstimationResult,
    Estimator,
    SeriesEstimationResult,
)
from repro.estimation.registry import register
from repro.optimize.nnls import KKT_TOLERANCE, kkt_residual, nnls_active_set

__all__ = ["VardiEstimator", "link_load_moments"]


def link_load_moments(link_load_series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance of a link-load series of shape ``(K, L)``.

    The covariance uses the biased (1/K) normalisation of the paper's
    formula; with short busy-hour windows the difference to 1/(K-1) is
    immaterial but the match to the text is exact.
    """
    series = np.asarray(link_load_series, dtype=float)
    if series.ndim != 2:
        raise EstimationError("link_load_series must be a (K, L) array")
    if series.shape[0] < 2:
        raise EstimationError("need at least two snapshots to estimate a covariance")
    mean = series.mean(axis=0)
    centered = series - mean
    covariance = centered.T @ centered / series.shape[0]
    return mean, covariance


@register()
class VardiEstimator(Estimator):
    """Poisson moment matching on a time series of link loads.

    Parameters
    ----------
    poisson_weight:
        The paper's ``sigma^{-2}`` in (0, 1]: weight of the second-moment
        (covariance) matching term relative to the first-moment term.  At
        zero the Hessian ``R'R`` is singular and the minimiser not unique,
        so zero is rejected.
    """

    name = "vardi"

    def __init__(self, poisson_weight: float = 1.0) -> None:
        if not 0 < poisson_weight <= 1:
            raise EstimationError("poisson_weight (sigma^-2) must lie in (0, 1]")
        self.poisson_weight = float(poisson_weight)

    def estimate(self, problem: EstimationProblem) -> EstimationResult:
        """Match the sample moments of the link-load series.

        Raises :class:`~repro.errors.SolverError` when the Hessian cannot
        be Cholesky-factored.
        """
        series = problem.series
        mean, covariance = link_load_moments(series)
        routing = problem.routing

        # <r_p r_p', r_q r_q'>_F = ((R'R)_pq)^2  and  <r_p r_p', Sigma>_F = (R' Sigma R)_pp
        gram = routing.gram()
        sigma_r = routing.rmatmat(covariance).T  # columns Sigma r_p, shape (L, P)
        hessian = gram + self.poisson_weight * gram**2
        linear = routing.rmatvec(mean) + self.poisson_weight * np.einsum(
            "lp,lp->p", routing.matrix, sigma_r
        )
        try:
            factor = scipy.linalg.cholesky(hessian, lower=True)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SolverError(f"Vardi's Hessian could not be factorised: {exc}") from exc
        # min ||L' x - L^{-1} h||^2 = x' H x - 2 h' x + const over x >= 0.
        values = nnls_active_set(
            factor.T, scipy.linalg.solve_triangular(factor, linear, lower=True)
        ).x
        certificate = kkt_residual(
            values, hessian @ values - linear, float(np.abs(linear).max(initial=0.0))
        )
        # R diag(values) R' compared against the sample covariance.
        scaled_columns = values[None, :] * routing.matrix
        covariance_model = routing.matmat(scaled_columns.T)
        return self._result(
            problem,
            values,
            poisson_weight=self.poisson_weight,
            num_snapshots=series.shape[0],
            first_moment_residual=float(np.linalg.norm(routing.matvec(values) - mean)),
            second_moment_residual=float(np.linalg.norm(covariance_model - covariance)),
            kkt_residual=certificate,
            converged=bool(certificate <= KKT_TOLERANCE),
        )

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """One window-level moment fit, reported for every snapshot.

        Vardi estimates the (stationary) Poisson intensities of the whole
        measurement window, so the batched result is the window estimate
        repeated per snapshot rather than ``K`` independent fits.
        """
        result = self.estimate(problem)
        estimates = np.tile(result.vector, (problem.num_snapshots, 1))
        return self._series_result(
            problem, estimates, batched=True, window_estimate=True, **result.diagnostics
        )
