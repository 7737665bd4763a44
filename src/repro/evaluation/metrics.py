"""Error metrics for traffic-matrix estimates.

The paper's headline metric is the **mean relative error (MRE)** over the
large demands (Equation 8): the average of ``|s_hat_i - s_i| / s_i`` taken
over the demands whose true value exceeds a threshold chosen such that the
retained demands carry approximately 90 % of the total traffic.  The
rationale is traffic engineering: only the large demands matter for link
utilisations, and relative accuracy on them is what load balancing and
failure analysis need.

Besides the MRE this module provides the threshold rule itself and a
rank-correlation metric backing the paper's remark that "most estimation
methods are very accurate in ranking the size of demands".
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.stats

from repro.errors import EstimationError
from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "top_demand_threshold",
    "mean_relative_error",
    "demand_ranking_correlation",
]


def _check_alignment(estimate: TrafficMatrix, truth: TrafficMatrix) -> None:
    if estimate.pairs is not truth.pairs and estimate.pairs != truth.pairs:
        raise EstimationError("estimate and truth use different pair orderings")


def _relative_error_vector(
    estimate: TrafficMatrix, truth: TrafficMatrix, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the demands above ``threshold`` and their relative errors."""
    _check_alignment(estimate, truth)
    true_values = truth.vector
    positions = np.flatnonzero(~((true_values <= threshold) | (true_values <= 0)))
    kept = true_values[positions]
    return positions, np.abs(estimate.vector[positions] - kept) / kept


def top_demand_threshold(truth: TrafficMatrix, traffic_fraction: float = 0.9) -> float:
    """Threshold such that demands above it carry ``traffic_fraction`` of traffic.

    This is the paper's rule for choosing which demands enter the MRE; with
    the default 0.9 the retained demands carry approximately 90 % of the
    total traffic (29 demands in the paper's European network, 155 in the
    American one).
    """
    return truth.threshold_for_traffic_fraction(traffic_fraction)


def mean_relative_error(
    estimate: TrafficMatrix,
    truth: TrafficMatrix,
    traffic_fraction: float = 0.9,
    threshold: Optional[float] = None,
) -> float:
    """The paper's MRE metric (Equation 8).

    Parameters
    ----------
    estimate, truth:
        Estimated and true traffic matrices over the same pairs.
    traffic_fraction:
        Fraction of total traffic the retained demands must carry (used to
        derive the threshold when ``threshold`` is not given explicitly).
    threshold:
        Explicit demand threshold ``s_T``; overrides ``traffic_fraction``.

    Raises
    ------
    EstimationError
        If no demand exceeds the threshold.
    """
    if threshold is None:
        threshold = top_demand_threshold(truth, traffic_fraction)
        # The threshold value itself belongs to the retained set ("larger
        # than s_T" in the paper includes the demand defining the 90% mark),
        # so move it just below.
        threshold = float(np.nextafter(threshold, 0.0))
    _, errors = _relative_error_vector(estimate, truth, threshold)
    if not errors.size:
        raise EstimationError("no demands exceed the MRE threshold")
    return float(np.mean(errors))


def demand_ranking_correlation(estimate: TrafficMatrix, truth: TrafficMatrix) -> float:
    """Spearman rank correlation between estimated and true demand sizes.

    Values near 1 confirm the paper's observation that even methods with a
    mediocre MRE rank the demands almost perfectly, which is what makes the
    "measure the largest estimated demands" strategy viable.
    """
    _check_alignment(estimate, truth)
    if len(truth.pairs) < 2:
        raise EstimationError("ranking correlation needs at least two demands")
    correlation = scipy.stats.spearmanr(estimate.vector, truth.vector).statistic
    return float(correlation)
