"""Numerical substrate: NNLS, constrained least squares, LP, iterative scaling.

These solvers back the estimation methods:

* :mod:`~repro.optimize.dual` — the link-space dual Newton solver behind
  the entropy and Bayesian estimators;
* :mod:`~repro.optimize.nnls` — non-negative least squares (active set and
  accelerated projected gradient);
* :mod:`~repro.optimize.qp` — equality-constrained least squares with and
  without non-negativity (fanout estimation);
* :mod:`~repro.optimize.linear_program` — LP wrapper and the certified
  worst-case-bound engine;
* :mod:`~repro.optimize.ipf` — Kruithof's biproportional fitting and the
  generalised iterative scaling / KL projection.
"""

from repro.optimize.dual import DualResult, KLMap, L2Map, solve_dual
from repro.optimize.ipf import (
    IPFResult,
    generalized_iterative_scaling,
    kl_divergence,
    kruithof_scaling,
)
from repro.optimize.linear_program import (
    BatchBoundsResult,
    LPResult,
    bound_variables_batch,
    presolve_variable_bounds,
    solve_linear_program,
)
from repro.optimize.nnls import NNLSResult, nnls, nnls_active_set, nnls_projected_gradient
from repro.optimize.qp import (
    ConstrainedLSResult,
    QPResult,
    constrained_nnls,
    equality_constrained_least_squares,
    nonnegative_quadratic_program,
    symmetric_spectral_norm,
)

__all__ = [
    "DualResult",
    "KLMap",
    "L2Map",
    "solve_dual",
    "NNLSResult",
    "nnls",
    "nnls_active_set",
    "nnls_projected_gradient",
    "ConstrainedLSResult",
    "equality_constrained_least_squares",
    "constrained_nnls",
    "QPResult",
    "nonnegative_quadratic_program",
    "symmetric_spectral_norm",
    "LPResult",
    "BatchBoundsResult",
    "solve_linear_program",
    "bound_variables_batch",
    "presolve_variable_bounds",
    "IPFResult",
    "kruithof_scaling",
    "generalized_iterative_scaling",
    "kl_divergence",
]
