"""Iterative proportional fitting (Kruithof's projection) and the KL distance.

Kruithof's 1937 method adjusts a prior traffic matrix so that its row and
column sums match measured totals of incoming and outgoing traffic; Krupp
showed the iteration converges to the matrix that minimises the
Kullback-Leibler distance to the prior subject to those constraints.

* :func:`kruithof_scaling` — the classical biproportional (row/column sum)
  fit of a stack of priors, used to make a prior consistent with edge-node
  totals.  The fit has the form ``diag(a) P diag(b)`` (Bishop, Fienberg &
  Holland, *Discrete Multivariate Analysis*, 1975, ch. 3), so the iteration
  updates the two scaling vectors and never rescales the table;
* :func:`kl_divergence` — the Kullback-Leibler distance ``D(s || prior)``
  used as the regulariser of the entropy approach.

Krupp's generalisation to all link constraints ``R s = t`` is the
``kl-projection`` estimator, solved by the link-space dual kernel
(:mod:`repro.optimize.dual`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.resilience.budget import budget_tick
from repro.telemetry.metrics import counter_inc, histogram_observe

__all__ = [
    "IPFResult",
    "kruithof_scaling",
    "kl_divergence",
]


@dataclass(frozen=True)
class IPFResult:
    """Result of a Kruithof scaling run over a ``(K, R, C)`` prior stack.

    Slice ``k`` of the fit is
    ``row_factors[k][:, None] * priors[k] * column_factors[k][None, :]``.

    Attributes
    ----------
    row_factors, column_factors:
        The ``(K, R)`` and ``(K, C)`` scaling vectors ``a`` and ``b``.
    iterations:
        Number of sweeps performed (the most any slice took).
    max_violation:
        Largest absolute constraint violation over the stack at termination
        (``inf`` when no sweep ran).
    relative_violation:
        The certificate: the largest over the slices of a slice's absolute
        violation divided by ``max(1, row total)`` (``inf`` when no sweep
        ran).
    converged:
        Whether every slice met the tolerance before the iteration cap,
        which holds exactly when ``relative_violation < tolerance``.
    """

    row_factors: np.ndarray
    column_factors: np.ndarray
    iterations: int
    max_violation: float
    relative_violation: float
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


def _ratio(targets: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """``targets / sums``, with a zero factor where a sum is zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sums > 0, targets / sums, 0.0)


def kruithof_scaling(
    priors: np.ndarray,
    row_targets: np.ndarray,
    column_targets: np.ndarray,
    max_iterations: int = 500,
    tolerance: float = 1e-9,
) -> IPFResult:
    """Classical Kruithof / biproportional fitting of ``K`` matrices at once.

    Parameters
    ----------
    priors:
        Non-negative ``(K, R, C)`` prior stack; zero entries stay zero.
    row_targets, column_targets:
        Required ``(K, R)`` row and ``(K, C)`` column sums.  A slice's two
        totals must agree (otherwise no feasible matrix exists): where they
        differ by more than ``tolerance`` relative, its column targets are
        rescaled to the row total before iterating, since the fit could
        not meet the tolerance otherwise.
    max_iterations, tolerance:
        Sweep cap and the bound on each slice's largest absolute violation
        of its targets divided by ``max(1, row total)``; the largest such
        ratio is returned as ``relative_violation``.

    A sweep sets ``a = r / (P b)`` and then ``b = c / (P' a)`` from
    ``b = 1`` (a zero sum gives a zero factor), so each sweep costs two
    matrix-vector products per slice.  The fitted row sums are
    ``a * (P b)`` and the column sums ``b * (P' a)``, and the violation is
    read from them.  A slice that meets the tolerance is frozen while the
    others iterate, so every slice takes exactly the sweeps it would take
    alone.
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
    rescale = mismatch > tolerance
    if np.any(rescale):
        column_targets = column_targets.copy()
        column_targets[rescale] *= (row_totals[rescale] / column_totals[rescale])[:, None]

    row_factors = np.ones((num_batch, num_rows))
    column_factors = np.ones((num_batch, num_cols))
    violations = np.full(num_batch, np.inf)
    scale = np.maximum(1.0, row_totals)
    # The unconverged slices, their priors and their current ``P b``.
    active = np.arange(num_batch)
    block = priors
    row_sums = (block @ column_factors[:, :, None])[:, :, 0]
    iterations = 0
    while iterations < max_iterations and active.size:
        budget_tick()
        iterations += 1
        rows, columns = row_targets[active], column_targets[active]
        a = _ratio(rows, row_sums)
        column_sums = (a[:, None, :] @ block)[:, 0, :]
        b = _ratio(columns, column_sums)
        row_sums = (block @ b[:, :, None])[:, :, 0]
        row_factors[active], column_factors[active] = a, b
        violations[active] = np.maximum(
            np.abs(a * row_sums - rows).max(axis=1, initial=0.0),
            np.abs(b * column_sums - columns).max(axis=1, initial=0.0),
        )
        keep = violations[active] / scale[active] >= tolerance
        if not keep.all():
            active, block, row_sums = active[keep], block[keep], row_sums[keep]
    max_violation = float(violations.max(initial=0.0))
    counter_inc("ipf.sweeps", iterations)
    histogram_observe("ipf.max_violation", max_violation)
    return IPFResult(
        row_factors=row_factors,
        column_factors=column_factors,
        iterations=iterations,
        max_violation=max_violation,
        relative_violation=float((violations / scale).max(initial=0.0)),
        converged=not active.size,
    )
