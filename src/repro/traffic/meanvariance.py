"""Mean-variance scaling laws for traffic demands.

Section 5.2.3 of the paper investigates the *generalised scaling law*

    ``Var{s_p} = phi * lambda_p ** c``

relating the variance of a demand to its mean.  For Poisson traffic
``phi = c = 1``; the paper fits ``phi = 0.82, c = 1.6`` to the European
demands and ``phi = 2.44, c = 1.5`` to the American ones, and this strong
relation is what the Vardi / Cao family of estimators tries to exploit.

This module provides:

* :class:`ScalingLaw` — the law itself, able to predict variances and draw
  demand samples consistent with it;
* :func:`fit_scaling_law` — the log-log least-squares fit the paper uses to
  obtain ``(phi, c)`` from per-demand sample means and variances;
* :func:`scaling_law_from_series` — convenience wrapper computing the fit
  directly from a :class:`~repro.traffic.matrix.TrafficMatrixSeries`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrafficError
from repro.traffic.matrix import TrafficMatrixSeries

__all__ = ["ScalingLaw", "fit_scaling_law", "scaling_law_from_series"]


@dataclass(frozen=True)
class ScalingLaw:
    """The generalised mean-variance scaling law ``Var = phi * mean ** c``.

    Parameters
    ----------
    phi:
        Multiplicative scale factor (must be positive).
    c:
        Exponent; ``c = 1`` with ``phi = 1`` recovers the Poisson relation.
    """

    phi: float
    c: float

    def __post_init__(self) -> None:
        if self.phi <= 0:
            raise TrafficError("scaling law parameter phi must be positive")

    def variance(self, mean: float | np.ndarray) -> float | np.ndarray:
        """Predicted variance for the given mean demand(s)."""
        mean = np.asarray(mean, dtype=float)
        if np.any(mean < 0):
            raise TrafficError("mean demands must be non-negative")
        result = self.phi * np.power(mean, self.c)
        return float(result) if result.ndim == 0 else result

    def sample(
        self,
        means: np.ndarray,
        size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw ``size`` demand snapshots consistent with the law.

        Each demand ``p`` is drawn i.i.d. from a normal distribution with
        mean ``means[p]`` and variance ``phi * means[p] ** c`` (the model of
        Cao et al.), clipped at zero since demands cannot be negative.

        Returns an array of shape ``(size, len(means))``.
        """
        means = np.asarray(means, dtype=float)
        if means.ndim != 1:
            raise TrafficError("means must be a one-dimensional array")
        if size <= 0:
            raise TrafficError("sample size must be positive")
        std = np.sqrt(self.variance(means))
        draws = rng.normal(loc=means, scale=std, size=(size, len(means)))
        return np.maximum(draws, 0.0)


def fit_scaling_law(
    means: np.ndarray,
    variances: np.ndarray,
    min_mean: float = 0.0,
) -> ScalingLaw:
    """Fit ``(phi, c)`` by least squares in log-log space.

    Parameters
    ----------
    means, variances:
        Per-demand sample means and variances (same length).
    min_mean:
        Demands with mean at or below this value are excluded from the fit;
        zero-mean or zero-variance demands are always excluded because their
        logarithm is undefined.

    Returns
    -------
    ScalingLaw
        The fitted law.

    Raises
    ------
    TrafficError
        If fewer than two usable points remain.
    """
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if means.shape != variances.shape or means.ndim != 1:
        raise TrafficError("means and variances must be one-dimensional arrays of equal length")
    mask = (means > max(min_mean, 0.0)) & (variances > 0.0)
    if int(mask.sum()) < 2:
        raise TrafficError("need at least two positive (mean, variance) points to fit the law")
    log_mean = np.log(means[mask])
    log_var = np.log(variances[mask])
    # Ordinary least squares for log(var) = log(phi) + c * log(mean).
    design = np.column_stack([np.ones_like(log_mean), log_mean])
    coeffs, *_ = np.linalg.lstsq(design, log_var, rcond=None)
    return ScalingLaw(phi=float(np.exp(coeffs[0])), c=float(coeffs[1]))


def scaling_law_from_series(
    series: TrafficMatrixSeries, min_mean: float = 0.0
) -> ScalingLaw:
    """Fit the scaling law to the per-demand statistics of a series.

    This is exactly the paper's procedure: per-demand 5-minute means and
    variances over the busy period, fitted across the whole demand range.
    """
    return fit_scaling_law(series.demand_means(), series.demand_variances(), min_mean=min_mean)
