"""Linear programming wrappers and the certified worst-case-bound engine.

The worst-case bounds of the paper (Section 4.3.1) solve, for every
origin-destination pair ``p``, the two linear programs

    maximise / minimise ``s_p``  subject to  ``A s = b``, ``s >= 0``.

Solved naively this is two cold-start LPs per pair — the computational
bottleneck the paper itself warns about.  This module provides two layers:

* :func:`solve_linear_program` — one LP through SciPy's HiGHS interface,
  with infeasibility / unboundedness normalised into
  :class:`~repro.errors.SolverError`;
* :func:`bound_variables_batch` — the batched engine: the sparse constraint
  model is built **once**, pairs the equality system pins are resolved
  without an LP, and the rest run on one incremental HiGHS model re-solved
  by the primal simplex from the previous optimal basis (objective changes
  only).

Its reductions are exact:

* **leverage pinning** — a coordinate takes the same value at every
  solution of ``A x = b`` exactly when its leverage score
  ``a_pᵀ (A Aᵀ)⁺ a_p`` is one; the value ``bᵀ (A Aᵀ)⁺ a_p`` needs no LP;
* **witness reuse** — every LP solution is a feasible point.  Once one
  reaches a pair's outer bound ``min_i b_i / a_ip`` (valid for non-negative
  ``A``), that bound is the maximum and its LP is skipped; any coordinate at
  zero in one has a minimum of exactly zero.

Every bound carries a certificate, checked in O(nnz) as it is found
(Boyd & Vandenberghe, *Convex Optimization*, ch. 5): a witness
``x >= 0`` with ``A x = b`` that attains the bound, and a dual ``y`` with
``bᵀ y`` equal to the bound and ``Aᵀ y >= e_p`` (``<= e_p`` for a lower
bound), which by weak duality no feasible point can beat.  The duals are the
LP's row duals, ``e_i / a_ip`` for a witness-resolved upper bound, ``0``
for a zero-witness lower bound and ``(A Aᵀ)⁺ a_p`` for a pinned pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.optimize
import scipy.sparse

from repro.errors import SolverError
from repro.routing.backends import gram_rank

__all__ = [
    "LPResult",
    "BatchBoundsResult",
    "solve_linear_program",
    "bound_variables_batch",
    "presolve_variable_bounds",
]

#: Relative certificate gap within which a bound counts as proved, and a
#: witness as attaining an outer bound.
_TIGHT_TOLERANCE = 1e-9

#: A coordinate is pinned when its leverage score is within this of one.
_PIN_TOLERANCE = 1e-10

#: Interval-propagation rounds of the presolve's lower bounds.
_PROPAGATION_ROUNDS = 3

#: Solution values below this certify "this coordinate can be zero".
_ZERO_WITNESS_TOLERANCE = 1e-11

#: HiGHS ``simplex_strategy`` for the primal simplex.  An objective change
#: keeps the last basis primal feasible, so the primal simplex re-solves
#: warm; the default dual simplex restarts from a dual-infeasible basis.
_PRIMAL_SIMPLEX = 4


@dataclass(frozen=True)
class LPResult:
    """Solution of one linear program.

    Attributes
    ----------
    x:
        Optimal point.
    objective:
        Optimal objective value (in the *original* sense — maximisation
        results are reported as the maximum, not its negation).
    status:
        Human-readable solver status.
    duals:
        Multipliers of the equality rows, in the original sense:
        ``equality_rhs @ duals == objective`` (empty without equalities).
    """

    x: np.ndarray
    objective: float
    status: str
    duals: np.ndarray


@dataclass(frozen=True)
class BatchBoundsResult:
    """Lower/upper bounds of a batch of coordinates over ``{x >= 0 : A x = b}``.

    Attributes
    ----------
    indices:
        The variable indices that were bounded, in request order.
    lower, upper:
        Bound arrays aligned with ``indices``.
    num_pinned:
        Coordinates resolved by leverage pinning (no LP).
    num_upper_skipped:
        Maximisation LPs skipped because a witness reached the outer bound.
    num_lower_skipped:
        Minimisation LPs skipped thanks to a zero witness.
    num_lps_solved:
        Linear programs actually handed to the solver.
    max_gap:
        Worst relative certificate gap over every bound (see
        :func:`bound_variables_batch`).
    engine:
        ``"highs-incremental"``, ``"linprog"`` or ``"presolve-only"``.
    """

    indices: tuple[int, ...]
    lower: np.ndarray
    upper: np.ndarray
    num_pinned: int = 0
    num_upper_skipped: int = 0
    num_lower_skipped: int = 0
    num_lps_solved: int = 0
    max_gap: float = 0.0
    engine: str = "presolve-only"

    @property
    def certified(self) -> bool:
        """Whether every bound is proved to within ``_TIGHT_TOLERANCE``."""
        return bool(self.max_gap <= _TIGHT_TOLERANCE)

    def pairs(self) -> list[tuple[float, float]]:
        """The ``(lower, upper)`` tuples in request order."""
        return [(float(lo), float(up)) for lo, up in zip(self.lower, self.upper)]


def solve_linear_program(
    cost: np.ndarray,
    equality_matrix: Optional[np.ndarray] = None,
    equality_rhs: Optional[np.ndarray] = None,
    upper_bounds: Optional[np.ndarray] = None,
    maximise: bool = False,
) -> LPResult:
    """Solve ``min/max cost @ x`` s.t. ``equality_matrix @ x = equality_rhs``, ``0 <= x <= ub``.

    Parameters
    ----------
    cost:
        Objective coefficients.
    equality_matrix, equality_rhs:
        Equality constraints (may be omitted together).  The matrix may be
        dense or a SciPy sparse matrix; sparse constraints are passed to the
        HiGHS solver without densification.
    upper_bounds:
        Optional per-variable upper bounds (``None`` entries mean unbounded).
    maximise:
        Maximise instead of minimise.

    Raises
    ------
    SolverError
        On infeasible, unbounded or otherwise failed problems.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 1:
        raise SolverError("cost must be a one-dimensional array")
    if (equality_matrix is None) != (equality_rhs is None):
        raise SolverError("equality_matrix and equality_rhs must be given together")
    if equality_matrix is not None:
        if not scipy.sparse.issparse(equality_matrix):
            equality_matrix = np.asarray(equality_matrix, dtype=float)
        equality_rhs = np.asarray(equality_rhs, dtype=float)
        if equality_matrix.shape != (len(equality_rhs), len(cost)):
            raise SolverError(
                f"equality matrix shape {equality_matrix.shape} inconsistent with "
                f"{len(equality_rhs)} constraints and {len(cost)} variables"
            )
    if upper_bounds is None:
        bounds = [(0.0, None)] * len(cost)
    else:
        upper_bounds = np.asarray(upper_bounds, dtype=float)
        if upper_bounds.shape != cost.shape:
            raise SolverError("upper_bounds must match the number of variables")
        bounds = [(0.0, float(ub) if np.isfinite(ub) else None) for ub in upper_bounds]

    sign = -1.0 if maximise else 1.0
    outcome = scipy.optimize.linprog(
        c=sign * cost,
        A_eq=equality_matrix,
        b_eq=equality_rhs,
        bounds=bounds,
        method="highs",
    )
    if not outcome.success:
        raise SolverError(f"linear program failed: {outcome.message}")
    duals = np.zeros(0) if equality_matrix is None else sign * np.asarray(outcome.eqlin.marginals)
    return LPResult(
        x=np.asarray(outcome.x),
        objective=float(sign * outcome.fun),
        status=outcome.message,
        duals=duals,
    )


# ----------------------------------------------------------------------
# structural presolve
# ----------------------------------------------------------------------
def _as_csr(matrix: Union[np.ndarray, scipy.sparse.spmatrix]) -> scipy.sparse.csr_matrix:
    if scipy.sparse.issparse(matrix):
        return matrix.tocsr()
    return scipy.sparse.csr_matrix(np.asarray(matrix, dtype=float))


def _checked_system(
    matrix: Union[np.ndarray, scipy.sparse.spmatrix], rhs: np.ndarray
) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    csr = _as_csr(matrix)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (csr.shape[0],):
        raise SolverError(f"rhs has shape {rhs.shape}, expected ({csr.shape[0]},)")
    return csr, rhs


def presolve_variable_bounds(
    matrix: Union[np.ndarray, scipy.sparse.spmatrix],
    rhs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Structural bounds on every coordinate of ``{x >= 0 : A x = b}``.

    Returns ``(lower, upper, pinned)``:

    * ``upper[p] = min_i b_i / a_ip`` over rows with ``a_ip > 0`` — the
      "minimum traversed link load" bound (``inf`` when no row covers the
      variable);
    * ``lower[p]`` from interval propagation: a row's load minus the upper
      bounds of every competing variable on that row, iterated up to
      three times;
    * ``pinned`` marks coordinates whose leverage score is one; for those,
      ``lower == upper`` equals the unique value the equality system allows.

    These intervals always **contain** the exact LP bounds, and they are
    valid for any feasible system; infeasibility is *not* detected here.
    """
    csr, rhs = _checked_system(matrix, rhs)
    lower, upper = _combinatorial_bounds(csr, rhs)
    pinned, duals = _leverage_pins(csr)
    lower[pinned] = upper[pinned] = np.maximum(duals @ rhs, 0.0)
    return lower, upper, pinned


def _combinatorial_bounds(
    csr: scipy.sparse.csr_matrix, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The row-by-row ``(lower, upper)`` of :func:`presolve_variable_bounds`."""
    num_rows, num_vars = csr.shape
    coo = csr.tocoo()
    # The combinatorial reasoning below assumes non-negative coefficients
    # (true for routing systems); with mixed signs fall back to the trivial
    # intervals and let the pinning do what it can.
    combinatorial = not np.any(coo.data < 0)
    positive = coo.data > 0
    rows, cols, vals = coo.row[positive], coo.col[positive], coo.data[positive]

    upper = np.full(num_vars, np.inf)
    if combinatorial and len(vals):
        np.minimum.at(upper, cols, rhs[rows] / vals)

    lower = np.zeros(num_vars)
    if combinatorial and len(vals):
        covered = np.zeros(num_vars, dtype=bool)
        covered[cols] = True
        for _ in range(_PROPAGATION_ROUNDS):
            finite = np.isfinite(upper)
            capped = np.where(finite, upper, 0.0)
            row_cap = np.zeros(num_rows)
            np.add.at(row_cap, rows, vals * capped[cols])
            row_free_count = np.zeros(num_rows)
            np.add.at(row_free_count, rows, (~finite[cols]).astype(float))
            # b_i - (row cap without p's own contribution), valid only when
            # every *other* variable on the row has a finite upper bound:
            # either the row has no unbounded variable at all, or exactly
            # one and it is p itself.
            candidate = (rhs[rows] - row_cap[rows] + vals * capped[cols]) / vals
            usable = (row_free_count[rows] == 0) | (
                (row_free_count[rows] == 1) & ~finite[cols]
            )
            new_lower = lower.copy()
            np.maximum.at(new_lower, cols[usable], candidate[usable])
            new_lower = np.maximum(new_lower, 0.0)
            # Tighter lower bounds tighten nothing else in this scheme, so
            # one extra round with refreshed uppers is enough to converge.
            if np.allclose(new_lower, lower):
                lower = new_lower
                break
            lower = new_lower
        lower = np.minimum(lower, np.where(np.isfinite(upper), upper, lower))
        lower[~covered] = 0.0
    return lower, upper


def _leverage_pins(csr: scipy.sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates fixed by the equality system alone, and their duals.

    Column ``p`` is pinned exactly when ``e_p`` lies in the row space of
    ``A``, i.e. when its leverage score ``a_pᵀ (A Aᵀ)⁺ a_p`` is one.  Then
    ``y_p = (A Aᵀ)⁺ a_p`` has ``Aᵀ y_p = e_p``, so every solution of
    ``A x = b`` has ``x_p = bᵀ y_p``.  The pseudo-inverse comes from the
    eigendecomposition of the ``(rows, rows)`` Gram, built from CSR products.

    Returns ``(pinned, duals)``: the mask, and one dual row per pinned
    coordinate in index order.
    """
    gram = (csr @ csr.T).toarray()
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    rank = gram_rank(eigenvalues)
    kept = slice(len(eigenvalues) - rank, None)
    # (A Aᵀ)⁺ = W Wᵀ with W the kept eigenvectors over sqrt(eigenvalues).
    whitened = eigenvectors[:, kept] / np.sqrt(eigenvalues[kept])
    projected = np.asarray(csr.T @ whitened)  # row p: Wᵀ a_p
    leverage = np.einsum("ij,ij->i", projected, projected)
    pinned = leverage >= 1.0 - _PIN_TOLERANCE
    duals = projected[pinned] @ whitened.T
    # The Gram squares A's condition number; one step of iterative
    # refinement on A Aᵀ y = a_p brings |Aᵀ y - e_p| back to rounding level.
    residual = csr[:, pinned].T.toarray() - np.asarray(csr @ (csr.T @ duals.T)).T
    duals += (residual @ whitened) @ whitened.T
    return pinned, duals


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------
class _Certifier:
    """Witness extremes and the worst certificate gap of one bound batch.

    Every absorbed LP solution is checked for feasibility, then kept through
    the per-coordinate maximum and minimum over all of them: each entry of
    ``high`` / ``low`` is attained by a checked feasible point.  Residuals
    are relative: loads to ``scale``, dual constraints to the unit
    objective coefficient.
    """

    def __init__(self, csr: scipy.sparse.csr_matrix, rhs: np.ndarray, scale: float) -> None:
        self.csr = csr
        self.transposed = csr.T.tocsr()
        self.rhs = rhs
        self.scale = scale
        self.high = np.full(csr.shape[1], -np.inf)
        self.low = np.full(csr.shape[1], np.inf)
        self.gap = 0.0

    def absorb(self, witness: np.ndarray) -> None:
        """Check a claimed point of ``{x >= 0 : A x = b}`` and keep it."""
        self._widen(np.abs(self.csr @ witness - self.rhs).max(initial=0.0) / self.scale)
        self._widen(-witness.min(initial=0.0) / self.scale)
        np.maximum(self.high, witness, out=self.high)
        np.minimum(self.low, witness, out=self.low)

    def prove(self, index: int, bound: float, dual: np.ndarray, maximise: bool) -> None:
        """Check one bound: a witness attains it, ``dual`` proves it.

        A maximum needs ``Aᵀ y >= e_p`` (a minimum ``<= e_p``) and
        ``bᵀ y == bound``.
        """
        attained = self.high[index] if maximise else self.low[index]
        self._widen(abs(attained - bound) / self.scale)
        slack = self.transposed @ dual
        slack[index] -= 1.0
        self._widen((-slack if maximise else slack).max(initial=0.0))
        self._widen(abs(float(self.rhs @ dual) - bound) / self.scale)

    def _widen(self, gap: float) -> None:
        # A NaN gap sticks, so an unreadable certificate never passes.
        if np.isnan(gap) or gap > self.gap:
            self.gap = float(gap)


# ----------------------------------------------------------------------
# incremental HiGHS engine
# ----------------------------------------------------------------------
def _load_highs_core():
    """The HiGHS python bindings vendored by SciPy, or ``None``.

    SciPy >= 1.15 ships ``scipy.optimize._highspy`` (the ``highspy``
    sources built against the bundled HiGHS); a standalone ``highspy``
    install works too.  Both expose the incremental model API that lets the
    engine build the constraint matrix once and re-solve from the previous
    optimal basis after an objective change.
    """
    try:
        from scipy.optimize._highspy import _core  # type: ignore[attr-defined]

        if hasattr(_core, "_Highs") or hasattr(_core, "Highs"):
            return _core
    except Exception:  # pragma: no cover - depends on the SciPy build
        pass
    try:  # pragma: no cover - exercised only with a standalone highspy
        import highspy

        return highspy
    except Exception:
        return None


class _IncrementalBoundSolver:
    """One HiGHS model, re-solved per coordinate with a warm basis.

    The constraint matrix and right-hand side are loaded once; bounding a
    coordinate is then an objective flip (`changeColCost` +
    `changeObjectiveSense`), re-solved by the primal simplex from the basis
    of the previous solve — orders of magnitude cheaper than cold-start LPs.
    """

    def __init__(self, csc: scipy.sparse.csc_matrix, rhs: np.ndarray) -> None:
        core = _load_highs_core()
        if core is None:
            raise SolverError("no incremental HiGHS bindings available")
        self._core = core
        highs_cls = getattr(core, "_Highs", None) or getattr(core, "Highs")
        num_rows, num_vars = csc.shape
        lp = core.HighsLp()
        lp.num_col_ = num_vars
        lp.num_row_ = num_rows
        lp.col_cost_ = np.zeros(num_vars)
        lp.col_lower_ = np.zeros(num_vars)
        lp.col_upper_ = np.full(num_vars, core.kHighsInf)
        lp.row_lower_ = np.asarray(rhs, dtype=float)
        lp.row_upper_ = np.asarray(rhs, dtype=float)
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = csc.indptr.astype(np.int32)
        lp.a_matrix_.index_ = csc.indices.astype(np.int32)
        lp.a_matrix_.value_ = csc.data.astype(float)
        self._highs = highs_cls()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        status = self._highs.passModel(lp)
        if status not in (core.HighsStatus.kOk, core.HighsStatus.kWarning):
            raise SolverError(f"HiGHS rejected the bounds model: {status}")

    def solve(self, index: int, maximise: bool) -> tuple[float, np.ndarray, np.ndarray]:
        """Optimal value, solution and row duals of ``min/max x_index``."""
        core = self._core
        highs = self._highs
        highs.changeColCost(index, 1.0)
        sense = core.ObjSense.kMaximize if maximise else core.ObjSense.kMinimize
        highs.changeObjectiveSense(sense)
        highs.run()
        model_status = highs.getModelStatus()
        if model_status != core.HighsModelStatus.kOptimal:
            highs.changeColCost(index, 0.0)
            raise SolverError(
                f"linear program failed: {highs.modelStatusToString(model_status)}"
            )
        objective = float(highs.getObjectiveValue())
        solution = highs.getSolution()
        highs.changeColCost(index, 0.0)
        return (
            objective,
            np.asarray(solution.col_value, dtype=float),
            np.asarray(solution.row_dual, dtype=float),
        )


class _LinprogBoundSolver:
    """Cold-start fallback used when no HiGHS bindings are importable."""

    def __init__(self, csc: scipy.sparse.csc_matrix, rhs: np.ndarray) -> None:
        self._matrix = csc.tocsr()
        self._rhs = np.asarray(rhs, dtype=float)
        self._num_vars = csc.shape[1]

    def solve(self, index: int, maximise: bool) -> tuple[float, np.ndarray, np.ndarray]:
        cost = np.zeros(self._num_vars)
        cost[index] = 1.0
        result = solve_linear_program(cost, self._matrix, self._rhs, maximise=maximise)
        return result.objective, result.x, result.duals


def _make_bound_solver(csc: scipy.sparse.csc_matrix, rhs: np.ndarray):
    """Prefer the incremental engine; fall back to per-LP ``linprog``."""
    try:
        return _IncrementalBoundSolver(csc, rhs), "highs-incremental"
    # The fallback is recorded in the returned engine label, which the
    # batch surfaces in its diagnostics.
    except SolverError:  # reprolint: allow[fault-handling]
        return _LinprogBoundSolver(csc, rhs), "linprog"


def _outer_bound_dual(csc: scipy.sparse.csc_matrix, rhs: np.ndarray, index: int) -> np.ndarray:
    """``e_i / a_ip`` for the row ``i`` attaining ``min_i b_i / a_ip``.

    With ``A >= 0``, ``Aᵀ y`` is row ``i`` over ``a_ip``: one on ``p``, and
    non-negative elsewhere, so ``y`` proves the outer upper bound.
    """
    start, stop = csc.indptr[index], csc.indptr[index + 1]
    rows, values = csc.indices[start:stop], csc.data[start:stop]
    positive = values > 0
    rows, values = rows[positive], values[positive]
    best = int(np.argmin(rhs[rows] / values))
    dual = np.zeros(len(rhs))
    dual[rows[best]] = 1.0 / values[best]
    return dual


def bound_variables_batch(
    indices: Sequence[int],
    equality_matrix: Union[np.ndarray, scipy.sparse.spmatrix],
    equality_rhs: np.ndarray,
) -> BatchBoundsResult:
    """Lower and upper bounds of many coordinates over ``{x >= 0 : A x = b}``.

    The sparse constraint model is built once; pinned coordinates (see
    :func:`presolve_variable_bounds`) need no LP, and the rest are visited
    in stable descending order of their outer bound ``min_i b_i / a_ip`` on
    one incremental HiGHS model.  A maximum is skipped when an earlier LP
    solution already reaches the outer bound, a minimum when one has the
    coordinate at zero.

    Every bound is certified by a witness and a dual (module docstring);
    ``max_gap`` is the worst of their relative residuals: the witnesses'
    ``|A x - b|`` and negativity and the distance of their coordinate from
    the bound, both over ``max(1, |b|)``, and each dual's violation of
    ``Aᵀ y >= e_p`` (``<=`` for a minimum) and the distance of ``bᵀ y`` from
    the bound.

    Parameters
    ----------
    indices:
        Variable indices to bound (request order is preserved).
    equality_matrix, equality_rhs:
        The constraint system; dense or SciPy sparse.

    Raises
    ------
    SolverError
        On invalid input, or when any LP is infeasible/unbounded.
    """
    csr, rhs = _checked_system(equality_matrix, equality_rhs)
    num_rows, num_vars = csr.shape
    index_list = [int(i) for i in indices]
    for index in index_list:
        if not 0 <= index < num_vars:
            raise SolverError(f"variable index {index} out of range for {num_vars} variables")
    if not index_list:
        return BatchBoundsResult(indices=(), lower=np.empty(0), upper=np.empty(0))

    requested = np.asarray(index_list)
    lower = np.empty(len(index_list))
    upper = np.empty(len(index_list))
    outer_lower, outer_upper = _combinatorial_bounds(csr, rhs)
    pinned, pin_duals = _leverage_pins(csr)
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    certifier = _Certifier(csr, rhs, scale)

    engine = "presolve-only"
    num_lps = num_upper_skipped = num_lower_skipped = 0
    surviving = np.flatnonzero(~pinned[requested])
    if surviving.size:
        csc = csr.tocsc()
        solver, engine = _make_bound_solver(csc, rhs)

        def solve(index: int, maximise: bool) -> float:
            value, witness, dual = solver.solve(index, maximise)
            certifier.absorb(witness)
            certifier.prove(index, value, dual, maximise)
            return value

        order = surviving[np.argsort(-outer_upper[requested[surviving]], kind="stable")]
        for pos in order:
            index = index_list[pos]
            if certifier.high[index] >= outer_upper[index] - _TIGHT_TOLERANCE * scale:
                upper[pos] = outer_upper[index]
                dual = _outer_bound_dual(csc, rhs, index)
                certifier.prove(index, upper[pos], dual, maximise=True)
                num_upper_skipped += 1
            else:
                upper[pos] = solve(index, maximise=True)
                num_lps += 1
            if (
                outer_lower[index] <= _ZERO_WITNESS_TOLERANCE
                and certifier.low[index] <= _ZERO_WITNESS_TOLERANCE
            ):
                lower[pos] = 0.0
                certifier.prove(index, 0.0, np.zeros(num_rows), maximise=False)
                num_lower_skipped += 1
            else:
                lower[pos] = solve(index, maximise=False)
                num_lps += 1
    else:
        # Every requested coordinate is pinned, so no LP ran to certify
        # feasibility (pinning on an infeasible system produces garbage
        # silently) or to supply a witness.  One zero-objective LP does both.
        certifier.absorb(solve_linear_program(np.zeros(num_vars), csr, rhs).x)

    pinned_positions = np.flatnonzero(pinned[requested])
    dual_row = np.cumsum(pinned) - 1
    for pos in pinned_positions:
        index = index_list[pos]
        dual = pin_duals[dual_row[index]]
        lower[pos] = upper[pos] = max(float(rhs @ dual), 0.0)
        certifier.prove(index, lower[pos], dual, maximise=True)
        certifier.prove(index, lower[pos], dual, maximise=False)

    return BatchBoundsResult(
        indices=tuple(index_list),
        lower=lower,
        upper=upper,
        num_pinned=len(pinned_positions),
        num_upper_skipped=num_upper_skipped,
        num_lower_skipped=num_lower_skipped,
        num_lps_solved=num_lps,
        max_gap=certifier.gap,
        engine=engine,
    )
