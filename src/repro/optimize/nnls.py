"""Exact non-negative least squares (NNLS) solvers.

Most estimators in the paper reduce to a least-squares problem with a
non-negativity constraint on the demands:

    minimize ``|| A x - b ||_2^2``  subject to ``x >= 0``.

Every solver here is exact: it returns the minimiser, not an approximation
of it (the batch flags any column it could not finish):

* :func:`nnls_active_set` — SciPy's Lawson-Hanson active-set algorithm,
  cubic in the number of variables.  Vardi's moment fit runs it on the
  Cholesky factor of its Hessian, and Cao's pseudo-EM takes its fallback
  start from it;
* :func:`nnls_normal_equations_batch` — many right-hand sides sharing one
  positive-definite Gram, factored once (Bayesian's series path);
* :func:`constrained_nnls` — the same problem with linear equality
  constraints added as heavily weighted rows, which is the fanout fit of
  paper Section 4.2.4; it reports the equality violation it leaves.  It
  runs Lawson-Hanson on the triangular factor of the stacked system
  rather than on the system itself: if ``[M | c] = Q [R d; 0 rho]`` with
  ``Q`` orthogonal, then ``||M x - c||^2 = ||R x - d||^2 + rho^2`` for
  every ``x``, so both have the same minimisers over ``x >= 0``
  (Lawson & Hanson 1974; Bjorck 1996).

:func:`kkt_residual` is the optimality certificate the callers report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from repro.errors import SolverError
from repro.resilience.budget import budget_tick

__all__ = [
    "KKT_TOLERANCE",
    "NNLSResult",
    "ConstrainedLSResult",
    "kkt_residual",
    "nnls_active_set",
    "nnls_normal_equations_batch",
    "constrained_nnls",
]

#: Bound on :func:`kkt_residual` that counts as an exact, converged solve.
KKT_TOLERANCE = 1e-10

#: Block-pivoting rounds per column in :func:`nnls_normal_equations_batch`.
_MAX_PIVOT_ROUNDS = 100


@dataclass(frozen=True)
class NNLSResult:
    """Solution of a non-negative least-squares problem.

    Attributes
    ----------
    x:
        The non-negative minimiser.
    residual_norm:
        ``|| A x - b ||_2`` at the solution.
    """

    x: np.ndarray
    residual_norm: float


@dataclass(frozen=True)
class ConstrainedLSResult:
    """Solution of an equality-constrained NNLS problem.

    Attributes
    ----------
    x:
        The minimiser.
    residual_norm:
        ``||A x - b||_2`` at the solution.
    equality_violation:
        ``||E x - f||_inf`` at the solution.
    """

    x: np.ndarray
    residual_norm: float
    equality_violation: float


def kkt_residual(x: np.ndarray, gradient: np.ndarray, scale: float) -> float:
    """Relative optimality residual ``max|min(x, gradient)| / scale``.

    At the minimiser of a convex function over ``x >= 0`` every entry has
    either ``x = 0`` and a non-negative gradient, or ``x > 0`` and a zero
    gradient, so ``min(x, gradient)`` vanishes entrywise; the residual
    measures how far ``x`` is from that.  ``scale`` (the size of the linear
    term, say) makes it relative; a zero scale counts as one.
    """
    if not x.size:
        return 0.0
    return float(np.max(np.abs(np.minimum(x, gradient)))) / (scale or 1.0)


def _validate(A, b: np.ndarray):
    """Normalise inputs; ``A`` may be dense or a SciPy sparse matrix."""
    if not scipy.sparse.issparse(A):
        A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise SolverError("A must be a two-dimensional array")
    if b.ndim != 1 or b.shape[0] != A.shape[0]:
        raise SolverError(f"b has shape {b.shape}, expected ({A.shape[0]},)")
    return A, b


def nnls_active_set(A: np.ndarray, b: np.ndarray) -> NNLSResult:
    """Exact NNLS via the Lawson-Hanson active-set algorithm (SciPy).

    Suitable for problems with up to a few thousand variables; raises
    :class:`~repro.errors.SolverError` if SciPy reports failure.  Sparse
    inputs are densified (the algorithm is inherently dense).
    """
    A, b = _validate(A, b)
    if scipy.sparse.issparse(A):
        A = A.toarray()
    try:
        x, residual = scipy.optimize.nnls(A, b)
    except Exception as exc:  # pragma: no cover - scipy failure is exceptional
        raise SolverError(f"active-set NNLS failed: {exc}") from exc
    return NNLSResult(x=x, residual_norm=float(residual))


def nnls_normal_equations_batch(
    gram: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact NNLS for many right-hand sides sharing one positive-definite Gram.

    Solves, for every column ``b`` of ``rhs``,

        minimise ``x' G x - 2 b' x``  subject to ``x >= 0``

    which is the normal-equations form of ``min ||A x - c||^2, x >= 0`` with
    ``G = A'A`` and ``b = A'c``.  ``G`` must be symmetric positive definite
    (regularised least-squares problems always are): the factorisation work
    is then done **once** — ``G`` is inverted up front — and each column
    only pays for small active-set solves via Kim & Park's block principal
    pivoting, warm-started from its unconstrained solution.  This is the
    factor-once batched path used by
    :meth:`repro.estimation.bayesian.BayesianEstimator.estimate_series`.

    Returns ``(solutions, converged)`` where ``solutions`` has the shape of
    ``rhs`` and ``converged`` flags each column (non-converged columns —
    which should not occur for positive-definite ``G`` — are clipped
    unconstrained solutions).
    """
    gram = np.asarray(gram, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise SolverError("gram must be a square matrix")
    single = rhs.ndim == 1
    if single:
        rhs = rhs[:, None]
    if rhs.ndim != 2 or rhs.shape[0] != gram.shape[0]:
        raise SolverError(f"rhs has shape {rhs.shape}, expected ({gram.shape[0]}, K)")

    num_vars, num_rhs = rhs.shape
    try:
        factor = scipy.linalg.cho_factor(gram)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"gram matrix is not positive definite: {exc}") from exc
    inverse = scipy.linalg.cho_solve(factor, np.eye(num_vars))
    unconstrained = scipy.linalg.cho_solve(factor, rhs)

    solutions = np.maximum(unconstrained, 0.0)
    converged = np.ones(num_rhs, dtype=bool)
    for col in range(num_rhs):
        z = unconstrained[:, col]
        tolerance = 1e-10 * max(1.0, float(np.abs(z).max(initial=0.0)))
        active = np.flatnonzero(z < -tolerance)
        if not active.size:
            continue  # the constraint is inactive: z is already the solution
        x = z
        lagrange = np.zeros(0)
        best_violations = np.inf
        backup_budget = 3
        solved = False
        for _ in range(_MAX_PIVOT_ROUNDS):
            budget_tick()
            # Equality-constrained solve (x[active] = 0) from the cached inverse:
            # x = z - G^{-1}[:, A] lambda with G^{-1}[A, A] lambda = z[A]; the
            # gradient is then -lambda on A and zero elsewhere.
            lagrange = np.linalg.solve(inverse[np.ix_(active, active)], z[active])
            x = z - inverse[:, active] @ lagrange
            x[active] = 0.0
            primal_violations = np.flatnonzero(x < -tolerance)
            dual_violations = active[lagrange > tolerance]
            num_violations = primal_violations.size + dual_violations.size
            if num_violations == 0:
                solved = True
                break
            if num_violations < best_violations:
                best_violations = num_violations
                backup_budget = 3
            elif backup_budget > 0:
                backup_budget -= 1
            else:
                # Kim-Park safeguard: exchange only the largest-index violator.
                worst = max(
                    primal_violations.max(initial=-1), dual_violations.max(initial=-1)
                )
                if worst in active:
                    dual_violations = np.array([worst])
                    primal_violations = np.array([], dtype=int)
                else:
                    primal_violations = np.array([worst])
                    dual_violations = np.array([], dtype=int)
            keep = np.setdiff1d(active, dual_violations, assume_unique=True)
            active = np.union1d(keep, primal_violations)
        if solved:
            solutions[:, col] = np.maximum(x, 0.0)
        else:  # pragma: no cover - PD gram always converges
            converged[col] = False
    if single:
        return solutions[:, 0], converged
    return solutions, converged


def _validate_problem(
    A: np.ndarray, b: np.ndarray, E: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    E = np.asarray(E, dtype=float)
    f = np.asarray(f, dtype=float)
    if A.ndim != 2 or E.ndim != 2:
        raise SolverError("A and E must be two-dimensional")
    if A.shape[1] != E.shape[1]:
        raise SolverError(
            f"A has {A.shape[1]} columns but E has {E.shape[1]}; they must match"
        )
    if b.shape != (A.shape[0],):
        raise SolverError(f"b has shape {b.shape}, expected ({A.shape[0]},)")
    if f.shape != (E.shape[0],):
        raise SolverError(f"f has shape {f.shape}, expected ({E.shape[0]},)")
    return A, b, E, f


def constrained_nnls(
    A: np.ndarray, b: np.ndarray, E: np.ndarray, f: np.ndarray
) -> ConstrainedLSResult:
    """Solve ``min ||A x - b||^2`` s.t. ``E x = f`` and ``x >= 0``.

    The equality constraints enter the objective as heavily weighted rows,
    ``M = [A; w E]`` and ``c = [b; w f]`` with ``w = 1000 * max(1,
    ||A||_F / ||E||_F)``, which keeps the equality residual several orders
    of magnitude below the data residual.  ``min ||M x - c||^2`` over
    ``x >= 0`` is then solved exactly by :func:`nnls_active_set` on a
    triangular factor of the stacked system.

    ``[M | c]`` is written once into a Fortran-ordered buffer that one
    Householder QR factors in place, without forming ``Q``: the kept
    triangle ``[R d; 0 rho]`` has at most ``n + 1`` rows, ``n`` the number
    of unknowns, however many rows ``M`` has.  ``Q`` is orthogonal, so
    ``||M x - c||^2 = ||R x - d||^2 + rho^2`` for every ``x``, and
    Lawson-Hanson on the triangle finds the minimisers of the stacked
    system.  The reduction is exact for any shape; with fewer rows than
    ``n + 1`` (a wide system) the factor is a trapezoid with one row per
    row of ``M`` and no ``rho``.  The achieved equality violation is
    returned so callers can check it (the fanout estimator also certifies
    optimality).
    """
    A, b, E, f = _validate_problem(A, b, E, f)
    scale_a = float(np.linalg.norm(A)) or 1.0
    scale_e = float(np.linalg.norm(E)) or 1.0
    penalty_weight = 1000.0 * max(1.0, scale_a / scale_e)
    rows, cols = A.shape
    augmented = np.empty((rows + E.shape[0], cols + 1), order="F")
    augmented[:rows, :cols] = A
    np.multiply(E, penalty_weight, out=augmented[rows:, :cols])
    augmented[:rows, cols] = b
    np.multiply(f, penalty_weight, out=augmented[rows:, cols])
    _, triangle = scipy.linalg.qr(augmented, mode="raw", overwrite_a=True, check_finite=False)
    x = nnls_active_set(triangle[:, :cols], triangle[:, cols]).x
    return ConstrainedLSResult(
        x=x,
        residual_norm=float(np.linalg.norm(A @ x - b)),
        equality_violation=float(np.max(np.abs(E @ x - f))) if E.shape[0] else 0.0,
    )
