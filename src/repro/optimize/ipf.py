"""Iterative proportional fitting (Kruithof's projection) and the KL distance.

Kruithof's 1937 method adjusts a prior traffic matrix so that its row and
column sums match measured totals of incoming and outgoing traffic; Krupp
showed the iteration converges to the matrix that minimises the
Kullback-Leibler distance to the prior subject to those constraints.

* :func:`kruithof_scaling` / :func:`kruithof_scaling_batch` — the classical
  biproportional (row/column sum) fit, used to make a gravity prior
  consistent with edge-node totals;
* :func:`kl_divergence` — the Kullback-Leibler distance ``D(s || prior)``
  used as the regulariser of the entropy approach.

Krupp's generalisation to all link constraints ``R s = t`` is the
``kl-projection`` estimator, solved by the link-space dual kernel
(:mod:`repro.optimize.dual`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import SolverError
from repro.resilience.budget import budget_tick
from repro.telemetry.metrics import counter_inc, histogram_observe

__all__ = [
    "IPFResult",
    "kruithof_scaling",
    "kruithof_scaling_batch",
    "kl_divergence",
]


@dataclass(frozen=True)
class IPFResult:
    """Result of a Kruithof scaling run.

    Attributes
    ----------
    values:
        The fitted matrix (:func:`kruithof_scaling`) or ``(K, R, C)`` stack
        (:func:`kruithof_scaling_batch`).
    iterations:
        Number of sweeps performed.
    max_violation:
        Largest absolute constraint violation at termination.
    converged:
        Whether the tolerance was met before the iteration cap.
    """

    values: np.ndarray
    iterations: int
    max_violation: float
    converged: bool


def kl_divergence(values: np.ndarray, prior: np.ndarray) -> float:
    """Kullback-Leibler distance ``sum_i v_i log(v_i / p_i) - v_i + p_i``.

    The generalised (unnormalised) form is used because traffic matrices are
    not probability distributions unless explicitly normalised; it is
    non-negative and zero exactly when ``values == prior``.  Zero entries are
    handled by the usual convention ``0 log 0 = 0``; a zero prior entry with
    a positive value gives ``+inf``.
    """
    values = np.asarray(values, dtype=float)
    prior = np.asarray(prior, dtype=float)
    if values.shape != prior.shape:
        raise SolverError("values and prior must have the same shape")
    if np.any(values < 0) or np.any(prior < 0):
        raise SolverError("KL divergence requires non-negative arguments")
    total = 0.0
    positive = values > 0
    if np.any(prior[positive] == 0):
        return float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        total = float(
            np.sum(values[positive] * np.log(values[positive] / prior[positive]))
            - values.sum()
            + prior.sum()
        )
    return total


def kruithof_scaling(
    prior: np.ndarray,
    row_targets: np.ndarray,
    column_targets: np.ndarray,
    max_iterations: int = 500,
    tolerance: float = 1e-9,
    initial: Optional[np.ndarray] = None,
) -> IPFResult:
    """Classical Kruithof / biproportional fitting of a matrix.

    Parameters
    ----------
    prior:
        Non-negative prior matrix (zero rows/columns stay zero).
    row_targets, column_targets:
        Required row and column sums.  Their totals must agree to within the
        tolerance (otherwise no feasible matrix exists); the column targets
        are rescaled to match the row total exactly before iterating.
    max_iterations, tolerance:
        Iteration cap and maximum allowed absolute violation of the targets.
    initial:
        Optional starting table for *incremental* IPF.  The iteration's
        fixed point depends on the start only through its biproportional
        class, so seeding with a table of the form
        ``prior * outer(a, b)`` — e.g. a previous fit of the *same* prior
        to slightly different targets — reaches the same KL projection of
        the prior in a handful of sweeps instead of hundreds.  The initial
        table must share the prior's support (zero exactly where the prior
        is zero); callers are responsible for that invariant (see
        :meth:`repro.estimation.kruithof.KruithofEstimator.set_warm_start`).
    """
    prior = np.asarray(prior, dtype=float)
    row_targets = np.asarray(row_targets, dtype=float)
    column_targets = np.asarray(column_targets, dtype=float)
    if prior.ndim != 2:
        raise SolverError("prior must be a matrix")
    if row_targets.shape != (prior.shape[0],) or column_targets.shape != (prior.shape[1],):
        raise SolverError("target shapes do not match the prior matrix")
    if np.any(prior < 0) or np.any(row_targets < 0) or np.any(column_targets < 0):
        raise SolverError("Kruithof scaling requires non-negative inputs")
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != prior.shape:
            raise SolverError("initial table shape does not match the prior matrix")
        if np.any(initial < 0):
            raise SolverError("initial table must be non-negative")
    row_total, column_total = row_targets.sum(), column_targets.sum()
    if row_total <= 0 or column_total <= 0:
        raise SolverError("targets must have positive totals")
    if abs(row_total - column_total) / max(row_total, column_total) > 1e-6:
        column_targets = column_targets * (row_total / column_total)

    values = prior.copy() if initial is None else initial.copy()
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        budget_tick()
        row_sums = values.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            row_factors = np.where(row_sums > 0, row_targets / row_sums, 0.0)
        values = values * row_factors[:, None]
        column_sums = values.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            column_factors = np.where(column_sums > 0, column_targets / column_sums, 0.0)
        values = values * column_factors[None, :]
        violation = max(
            float(np.max(np.abs(values.sum(axis=1) - row_targets), initial=0.0)),
            float(np.max(np.abs(values.sum(axis=0) - column_targets), initial=0.0)),
        )
        if violation < tolerance * max(1.0, row_total):
            converged = True
            break
    violation = max(
        float(np.max(np.abs(values.sum(axis=1) - row_targets), initial=0.0)),
        float(np.max(np.abs(values.sum(axis=0) - column_targets), initial=0.0)),
    )
    counter_inc("ipf.sweeps", iterations)
    histogram_observe("ipf.max_violation", violation)
    return IPFResult(values=values, iterations=iterations, max_violation=violation, converged=converged)


def kruithof_scaling_batch(
    priors: np.ndarray,
    row_targets: np.ndarray,
    column_targets: np.ndarray,
    max_iterations: int = 500,
    tolerance: float = 1e-9,
) -> IPFResult:
    """Biproportional fitting of ``K`` matrices at once.

    Vectorised counterpart of :func:`kruithof_scaling` for a batch of
    problems sharing one shape: ``priors`` is ``(K, R, C)``, ``row_targets``
    is ``(K, R)`` and ``column_targets`` is ``(K, C)``.  Every slice ``k``
    follows exactly the same update sequence as an individual
    :func:`kruithof_scaling` call — converged slices are frozen rather than
    iterated further — so batch results match the one-at-a-time results
    while the sweeps run as whole-array operations.

    Returns an :class:`IPFResult` whose ``values`` is the fitted ``(K, R,
    C)`` stack, ``max_violation`` is the worst violation over the batch and
    ``converged`` reports whether *every* slice converged.
    """
    priors = np.asarray(priors, dtype=float)
    row_targets = np.asarray(row_targets, dtype=float)
    column_targets = np.asarray(column_targets, dtype=float)
    if priors.ndim != 3:
        raise SolverError("priors must be a (K, rows, columns) stack")
    num_batch, num_rows, num_cols = priors.shape
    if row_targets.shape != (num_batch, num_rows):
        raise SolverError("row_targets shape does not match the prior stack")
    if column_targets.shape != (num_batch, num_cols):
        raise SolverError("column_targets shape does not match the prior stack")
    if np.any(priors < 0) or np.any(row_targets < 0) or np.any(column_targets < 0):
        raise SolverError("Kruithof scaling requires non-negative inputs")
    row_totals = row_targets.sum(axis=1)
    column_totals = column_targets.sum(axis=1)
    if np.any(row_totals <= 0) or np.any(column_totals <= 0):
        raise SolverError("targets must have positive totals")
    mismatch = np.abs(row_totals - column_totals) / np.maximum(row_totals, column_totals)
    rescale = mismatch > 1e-6
    if np.any(rescale):
        column_targets = column_targets.copy()
        column_targets[rescale] *= (row_totals[rescale] / column_totals[rescale])[:, None]

    values = priors.copy()
    scale = tolerance * np.maximum(1.0, row_totals)
    active = np.ones(num_batch, dtype=bool)
    iterations = 0
    while iterations < max_iterations and np.any(active):
        budget_tick()
        iterations += 1
        block = values[active]
        row_sums = block.sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            row_factors = np.where(row_sums > 0, row_targets[active] / row_sums, 0.0)
        block = block * row_factors[:, :, None]
        column_sums = block.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            column_factors = np.where(column_sums > 0, column_targets[active] / column_sums, 0.0)
        block = block * column_factors[:, None, :]
        values[active] = block
        violation = np.maximum(
            np.abs(block.sum(axis=2) - row_targets[active]).max(axis=1, initial=0.0),
            np.abs(block.sum(axis=1) - column_targets[active]).max(axis=1, initial=0.0),
        )
        still_active = np.flatnonzero(active)[violation >= scale[active]]
        active = np.zeros(num_batch, dtype=bool)
        active[still_active] = True
    final_violation = float(
        max(
            np.abs(values.sum(axis=2) - row_targets).max(initial=0.0),
            np.abs(values.sum(axis=1) - column_targets).max(initial=0.0),
        )
    )
    counter_inc("ipf.sweeps", iterations)
    histogram_observe("ipf.max_violation", final_violation)
    return IPFResult(
        values=values,
        iterations=iterations,
        max_violation=final_violation,
        converged=not np.any(active),
    )
