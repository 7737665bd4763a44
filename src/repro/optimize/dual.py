"""Link-space dual Newton solver for the regularised estimators.

The entropy (paper Section 4.2.1) and Bayesian (Section 4.2.3) estimators,
and the tomogravity and KL-projection variants of entropy, all minimise

    ``f(s) = || R s - t ||_2^2 + D(s)``  over  ``s >= 0``

for a separable penalty ``D`` pulling the ``P = N (N - 1)`` demands towards
a prior ``p``.  Dualising the misfit ``u = R s - t`` with one multiplier per
*link* (``y``, length ``L``, about ``3 N`` on a backbone) gives the concave
dual

    ``g(y) = min_{s >= 0} [D(s) + y' R s] - y' t - ||y||^2 / 4``

whose inner minimisation is separable and closed-form.  Its minimiser is
the *link map* ``s(y)``; two are provided:

* :class:`KLMap` — ``D(s) = c sum(s log(s / p) - s + p)`` gives
  ``s(y) = p exp(-R'y / c)``;
* :class:`L2Map` — ``D(s) = w || s - p ||^2`` gives
  ``s(y) = max(0, p - R'y / (2 w))``.

The dual gradient is ``R s(y) - t - y / 2`` and the negated (generalised)
Hessian ``R diag(d) R' + I / 2`` is an ``L x L`` symmetric positive definite
matrix (``d = s / c`` for KL, ``1[s > 0] / (2 w)`` for L2), so
:func:`solve_dual` runs Newton steps with a dense Cholesky factorisation and
Armijo backtracking; it needs a handful of steps whatever ``P`` is.  The
routing matrix supplies ``R diag(d) R'`` through ``link_gram``:
:class:`~repro.routing.RoutingMatrix` analyses its sparsity pattern once,
on the first call, so each step pays one sparse mat-vec over that pattern
and the ``L x L`` factorisation, not a sparse-sparse product.  When
the data term dominates (KL projection, ``sigma^2 = 1e8``), a step's
predicted ascent can drop below the rounding of the dual value before the
gap meets its tolerance.  That rounding is measured against the magnitude
of the terms the value sums, not the value itself, which can be far
smaller; below it a full step is taken when it shrinks the gradient, which
is computed without cancellation.  A backtracking step too short to move
``y`` ends the solve.

Every ``s(y)`` is primal feasible, and the duality gap ``f(s(y)) - g(y)``
equals the squared dual gradient ``|| R s(y) - t - y / 2 ||^2`` exactly, so
the certificate is computed without cancellation: the returned demands are
within the gap of the true minimum.  Every solve starts from ``y = 0``: the
objective is strictly convex, so the certified minimiser does not depend on
where the Newton iteration starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg

from repro.errors import SolverError
from repro.optimize.ipf import kl_divergence
from repro.resilience.budget import budget_tick
from repro.routing.backends import RoutingOperator

__all__ = ["DualResult", "KLMap", "L2Map", "solve_dual"]

#: Bound on the relative duality gap ``(f - g) / f`` that counts as converged.
GAP_TOLERANCE = 1e-10

#: Armijo sufficient-ascent constant and backtracking depth.
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 50

#: Predicted ascent, relative to the magnitude of the terms the dual value
#: sums, below which the value can no longer rank two points and the line
#: search switches to the gradient.
_VALUE_FLOOR = 1e-14


class KLMap:
    """Kullback-Leibler link map ``s(y) = p exp(-R'y / c)`` with weight ``c``.

    Demands whose prior is zero stay exactly zero.
    """

    def __init__(self, prior: np.ndarray, weight: float) -> None:
        self.prior = np.asarray(prior, dtype=float)
        self.weight = float(weight)
        with np.errstate(divide="ignore"):
            self._log_prior = np.log(self.prior)
        self._prior_total = float(self.prior.sum())

    def demands(self, z: np.ndarray) -> np.ndarray:
        return np.exp(self._log_prior - z / self.weight)

    def dual_term(self, s: np.ndarray, z: np.ndarray) -> tuple[float, float]:
        """``D(s) + z's`` at ``s = s(y)`` and the magnitude of the terms it sums.

        The term reduces to ``c sum(p - s)``, its magnitude to
        ``c (sum(p) + sum(s))``.
        """
        total = float(s.sum())
        return self.weight * (self._prior_total - total), self.weight * (
            self._prior_total + total
        )

    def penalty(self, s: np.ndarray) -> float:
        return self.weight * kl_divergence(s, self.prior)

    def curvature(self, s: np.ndarray) -> np.ndarray:
        return s / self.weight


class L2Map:
    """Quadratic link map ``s(y) = max(0, p - R'y / (2 w))`` with weight ``w``."""

    def __init__(self, prior: np.ndarray, weight: float) -> None:
        self.prior = np.asarray(prior, dtype=float)
        self.weight = float(weight)

    def demands(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(self.prior - z / (2.0 * self.weight), 0.0)

    def dual_term(self, s: np.ndarray, z: np.ndarray) -> tuple[float, float]:
        """``D(s) + z's`` and the magnitude of the terms it sums, ``D(s) + |z|'s``."""
        penalty = self.penalty(s)
        return penalty + float(z @ s), penalty + float(np.abs(z) @ s)

    def penalty(self, s: np.ndarray) -> float:
        offset = s - self.prior
        return self.weight * float(offset @ offset)

    def curvature(self, s: np.ndarray) -> np.ndarray:
        return (s > 0) / (2.0 * self.weight)


LinkMap = Union[KLMap, L2Map]


@dataclass(frozen=True)
class DualResult:
    """Outcome of :func:`solve_dual`.

    Attributes
    ----------
    demands:
        The primal estimate ``s(y)`` (non-negative, length ``P``).
    multipliers:
        The dual point ``y`` (length ``L``).
    objective:
        The primal objective ``f(s)``.
    duality_gap:
        The certificate: ``(f(s) - g(y)) / f(s)``, a bound on how far
        ``objective`` is above the true minimum, relative to it.
    iterations:
        Newton steps taken.
    converged:
        Whether ``duality_gap`` is within :data:`GAP_TOLERANCE`.
    """

    demands: np.ndarray
    multipliers: np.ndarray
    objective: float
    duality_gap: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class _Point:
    y: np.ndarray
    demands: np.ndarray
    residual: np.ndarray
    gradient: np.ndarray
    value: float
    #: Magnitude of the terms ``value`` sums, which bounds its rounding.
    scale: float


def solve_dual(
    routing: RoutingOperator,
    loads: np.ndarray,
    link_map: LinkMap,
    max_iterations: int = 100,
) -> DualResult:
    """Minimise ``|| R s - t ||^2 + D(s)`` over ``s >= 0`` through its link-space dual.

    Parameters
    ----------
    routing:
        The routing operator ``R``; only ``matvec``, ``rmatvec`` and
        ``link_gram`` are used, so a CSR routing matrix stays sparse.
    loads:
        The link loads ``t``.
    link_map:
        :class:`KLMap` or :class:`L2Map`, carrying the prior and weight.
    max_iterations:
        Cap on Newton steps.

    Raises
    ------
    SolverError
        On non-finite loads or prior, or when the Newton system cannot be
        factorised.
    """
    loads = np.asarray(loads, dtype=float)
    if not (np.isfinite(loads).all() and np.isfinite(link_map.prior).all()):
        raise SolverError("the dual solver needs finite link loads and prior")
    if not np.isfinite(link_map.weight) or link_map.weight <= 0:
        raise SolverError("the dual solver needs a finite positive weight")

    def evaluate(y: np.ndarray) -> _Point:
        budget_tick()
        z = routing.rmatvec(y)
        with np.errstate(over="ignore", invalid="ignore"):
            demands = link_map.demands(z)
            residual = routing.matvec(demands) - loads
            term, term_scale = link_map.dual_term(demands, z)
            load_term = float(y @ loads)
            norm_term = 0.25 * float(y @ y)
            value = term - load_term - norm_term
            scale = term_scale + abs(load_term) + norm_term
        return _Point(y, demands, residual, residual - 0.5 * y, value, scale)

    point = evaluate(np.zeros(loads.shape))
    iterations = 0
    objective, gap = _certificate(point, link_map)
    while gap > GAP_TOLERANCE and iterations < max_iterations:
        step = _newton_step(routing, link_map, point)
        slope = float(point.gradient @ step)
        if slope <= _VALUE_FLOOR * point.scale:
            # The predicted ascent is below the dual value's rounding, so
            # the Armijo test would compare noise.  The gradient (whose
            # square is the gap) is computed without cancellation: take the
            # full Newton step if it shrinks it (a NaN does not), else stop.
            trial = evaluate(point.y + step)
            if not float(trial.gradient @ trial.gradient) < float(point.gradient @ point.gradient):
                break
        else:
            found = _backtrack(evaluate, point, step, slope)
            if found is None:
                # No measurable ascent along the Newton direction: the dual
                # value has reached its floating-point floor.  The
                # certificate below says how good the point is.
                break
            trial = found
        point = trial
        iterations += 1
        objective, gap = _certificate(point, link_map)
    return DualResult(
        demands=point.demands,
        multipliers=point.y,
        objective=objective,
        duality_gap=gap,
        iterations=iterations,
        converged=bool(gap <= GAP_TOLERANCE),
    )


def _backtrack(
    evaluate: Callable[[np.ndarray], _Point], point: _Point, step: np.ndarray, slope: float
) -> Optional[_Point]:
    """The first point along ``step``, halving from a full step, that passes Armijo.

    ``None`` when the backtracking depth runs out, or when a step becomes
    too short to move ``y`` (every shorter one would be the same point).
    """
    size = 1.0
    for _ in range(_MAX_BACKTRACKS):
        y = point.y + size * step
        if np.array_equal(y, point.y):
            return None
        trial = evaluate(y)
        if trial.value >= point.value + _ARMIJO * size * slope:
            return trial
        size *= 0.5
    return None


def _certificate(point: _Point, link_map: LinkMap) -> tuple[float, float]:
    """``(f(s), (f(s) - g(y)) / f(s))``; the gap is the squared dual gradient."""
    objective = float(point.residual @ point.residual) + link_map.penalty(point.demands)
    gap = float(point.gradient @ point.gradient)
    if gap == 0.0:
        return objective, 0.0
    return objective, gap / objective if objective > 0 else float("inf")


def _newton_step(routing: RoutingOperator, link_map: LinkMap, point: _Point) -> np.ndarray:
    """Solve ``(R diag(d) R' + I / 2) step = grad g(y)`` by Cholesky."""
    hessian = routing.link_gram(link_map.curvature(point.demands))
    hessian[np.diag_indices_from(hessian)] += 0.5
    try:
        factor = scipy.linalg.cho_factor(hessian)
        return scipy.linalg.cho_solve(factor, point.gradient)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"dual Newton system could not be factorised: {exc}") from exc
