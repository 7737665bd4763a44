"""Tomogravity: a gravity prior refined by an entropy fit to the link loads.

"Tomogravity" (Zhang et al.) is the combination the paper finds most
practical: a gravity prior refined by a tomographic (link-load) fit with a
Kullback-Leibler regulariser.  It is exactly the entropy estimator of
:mod:`repro.estimation.entropy` with its defaults — the gravity prior and
``sigma^2 = 1000`` — registered under its own name so that runners, sweeps
and the streaming supervisor can ask for the recommended pipeline by name.
"""

from __future__ import annotations

import numpy as np

from repro.estimation.entropy import EntropyEstimator
from repro.estimation.registry import register

__all__ = ["TomogravityEstimator"]


@register()
class TomogravityEstimator(EntropyEstimator):
    """Gravity prior + KL-regularised tomographic fit, solved by the dual kernel.

    Parameters
    ----------
    regularization:
        ``sigma^2``, as for :class:`~repro.estimation.entropy.EntropyEstimator`.
    prior:
        Prior vector or prior name (default ``"gravity"``).
    """

    name = "tomogravity"

    def __init__(
        self, regularization: float = 1000.0, prior: str | np.ndarray = "gravity"
    ) -> None:
        super().__init__(regularization=regularization, prior=prior)
