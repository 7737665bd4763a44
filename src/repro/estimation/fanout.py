"""Fanout estimation from a time series of link loads (paper Section 4.2.4).

The fanout formulation writes every demand as ``s_nm[k] = alpha_nm *
t_e(n)[k]``: the fraction ``alpha_nm`` of the traffic entering the network
at ``n`` that leaves at ``m``, times the (observable) total ingress traffic
of ``n``.  Section 5.2.2 of the paper shows that fanouts are much more
stable over the day than the demands themselves, which motivates estimating
a *single* fanout vector from a whole window of measurements:

    minimise ``sum_k || R S[k] alpha - t[k] ||_2^2``
    subject to ``sum_m alpha_nm = 1`` for every origin ``n``,  ``alpha >= 0``

where ``S[k] = diag(t_e(origin(p))[k])`` converts fanouts into demands for
snapshot ``k``.  Already for window length 3 the stacked system becomes
overdetermined; the paper's Figure 11 shows the error dropping quickly with
the first few snapshots and then levelling out.

:class:`FanoutEstimator` solves this constrained least-squares problem with
:func:`repro.optimize.nnls.constrained_nnls`.  Its stacked system has
``K * L + N`` rows (``L`` links, ``N`` origins) for ``P`` fanouts;
``constrained_nnls`` factors it once by a Q-less QR and runs Lawson-Hanson
on the triangle of at most ``P + 1`` rows.  The QR is orthogonal, so the
triangle's fit differs from the stacked one by a constant and has the same
minimisers: a longer window costs one more slab of the factorisation, not
a larger active-set solve.  The estimator reports, as its point estimate,
the window-average demands ``mean_k t_e(n)[k] * alpha_nm`` (the quantity
the paper plots in Figure 10).  The fit is certified by its KKT
residual: with ``g = A'(A alpha - b)`` the gradient of the stacked fit and
``mu_n = -min g`` over origin ``n``'s fanouts its equality multiplier, the
minimiser has ``min(alpha, g + mu) = 0`` entrywise.  The gradient is
divided by the size of ``A'b`` before the ``min``, so the residual, like
the fanouts, does not depend on the traffic unit.
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
from repro.optimize.nnls import KKT_TOLERANCE, constrained_nnls, kkt_residual

__all__ = ["FanoutEstimator"]

#: Largest violation of "every origin's fanouts sum to one" that counts as
#: converged.
EQUALITY_TOLERANCE = 1e-6


@register()
class FanoutEstimator(Estimator):
    """Constant-fanout estimation over a window of link-load measurements.

    Parameters
    ----------
    window_length:
        Number of snapshots (from the start of the problem's series) to use;
        ``None`` uses the full series.
    """

    name = "fanout"

    def __init__(self, window_length: Optional[int] = None) -> None:
        if window_length is not None and window_length < 1:
            raise EstimationError("window_length must be at least 1")
        self.window_length = window_length

    @staticmethod
    def _ingress(problem: EstimationProblem) -> np.ndarray:
        """Per-snapshot ingress totals per origin, shape ``(K, N_origins)``."""
        ingress, _ = problem.totals_by_snapshot()
        if ingress is None:
            raise EstimationError(
                "fanout estimation needs origin ingress totals "
                "(origin_totals_series or origin_totals)"
            )
        return ingress

    def estimate(self, problem: EstimationProblem) -> EstimationResult:
        """Fit a single fanout vector to the measurement window."""
        if problem.link_load_series is None:
            raise EstimationError("fanout estimation requires a link-load time series")
        series = problem.link_load_series
        num_snapshots = series.shape[0]
        if self.window_length is not None:
            if self.window_length > num_snapshots:
                raise EstimationError(
                    f"window_length {self.window_length} exceeds available "
                    f"{num_snapshots} snapshots"
                )
            num_snapshots = self.window_length
            series = series[:num_snapshots]

        ingress = self._ingress(problem)[:num_snapshots]
        origins, _, pair_origin_col, _ = problem.pair_positions()

        routing = problem.routing.matrix
        num_links, num_pairs = routing.shape

        # Stack R * diag(t_e(origin(p))[k]) for every snapshot in the window.
        blocks = np.empty((num_snapshots * num_links, num_pairs))
        rhs = np.empty(num_snapshots * num_links)
        for k in range(num_snapshots):
            scaling = ingress[k, pair_origin_col]
            blocks[k * num_links : (k + 1) * num_links] = routing * scaling[None, :]
            rhs[k * num_links : (k + 1) * num_links] = series[k]

        # One equality row per origin: its fanouts sum to one.
        equality = np.zeros((len(origins), num_pairs))
        equality[pair_origin_col, np.arange(num_pairs)] = 1.0
        targets = np.ones(len(origins))

        # Scaled in place: a second copy of the stack would outweigh the
        # factorisation's buffer.  The certificate is unit-free, so it is
        # computed on the scaled system too.
        scale = float(np.abs(blocks).max(initial=1.0))
        blocks /= scale
        rhs /= scale
        solution = constrained_nnls(blocks, rhs, equality, targets)
        fanouts = np.maximum(solution.x, 0.0)
        certificate = _kkt_residual(
            blocks, rhs, fanouts, pair_origin_col, num_links, len(origins)
        )

        # Point estimate: window-average demands implied by the fanouts.
        mean_ingress = ingress.mean(axis=0)
        values = fanouts * mean_ingress[pair_origin_col]
        return self._result(
            problem,
            values,
            fanouts=fanouts,
            window_length=num_snapshots,
            equality_violation=solution.equality_violation,
            residual_norm=solution.residual_norm,
            kkt_residual=certificate,
            converged=bool(
                certificate <= KKT_TOLERANCE
                and solution.equality_violation <= EQUALITY_TOLERANCE
            ),
        )

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Fit the fanouts once, then scale by every snapshot's ingress totals.

        This is the fanout model's native batch form: ``s_nm[k] = alpha_nm *
        t_e(n)[k]``, so one constrained fit serves the whole series and the
        per-snapshot estimates are a single broadcast multiply.
        """
        result = self.estimate(problem)
        fanouts = np.asarray(result.diagnostics["fanouts"], dtype=float)
        _, _, pair_origin_col, _ = problem.pair_positions()
        estimates = fanouts[None, :] * self._ingress(problem)[:, pair_origin_col]
        diagnostics = dict(result.diagnostics)
        del diagnostics["fanouts"]
        return self._series_result(problem, estimates, batched=True, **diagnostics)


def _kkt_residual(
    blocks: np.ndarray,
    rhs: np.ndarray,
    fanouts: np.ndarray,
    pair_origin_col: np.ndarray,
    num_links: int,
    num_origins: int,
) -> float:
    """KKT residual of ``fanouts`` for the stacked fit ``min ||A alpha - b||^2``.

    ``g = A'(A alpha - b)`` is computed once; each origin's multiplier
    ``mu_n = -min g`` over its fanouts makes ``g + mu >= 0``.  The residual
    is ``max|min(alpha, (g + mu) / s)|`` with ``s`` the largest
    ``|d_k o R't_k|``, the per-snapshot terms of ``A'b``: scaling the loads
    and ingress by ``c`` scales ``g`` and ``s`` by ``c^2`` and leaves the
    unitless fanouts alone, so the residual is unit-free.
    """
    gradient = blocks.T @ (blocks @ fanouts - rhs)
    lowest = np.full(num_origins, np.inf)
    np.minimum.at(lowest, pair_origin_col, gradient)
    per_snapshot = np.einsum(
        "klp,kl->kp", blocks.reshape(-1, num_links, blocks.shape[1]), rhs.reshape(-1, num_links)
    )
    scale = float(np.abs(per_snapshot).max(initial=0.0)) or 1.0
    return kkt_residual(fanouts, (gradient - lowest[pair_origin_col]) / scale, 1.0)
