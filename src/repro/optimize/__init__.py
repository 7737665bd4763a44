"""Numerical substrate: exact NNLS, the dual Newton kernel, LP, Kruithof scaling.

These solvers back the estimation methods:

* :mod:`~repro.optimize.dual` — the link-space dual Newton solver behind
  the entropy, tomogravity, KL-projection and Bayesian estimators;
* :mod:`~repro.optimize.nnls` — exact non-negative least squares
  (Lawson-Hanson, a factor-once batch for many right-hand sides, and the
  equality-constrained fanout fit) and the KKT residual that certifies it;
* :mod:`~repro.optimize.linear_program` — LP wrapper and the certified
  worst-case-bound engine;
* :mod:`~repro.optimize.ipf` — Kruithof's biproportional fitting and the
  Kullback-Leibler distance.
"""

from repro.optimize.dual import DualResult, KLMap, L2Map, solve_dual
from repro.optimize.ipf import IPFResult, kl_divergence, kruithof_scaling
from repro.optimize.linear_program import (
    BatchBoundsResult,
    LPResult,
    bound_variables_batch,
    presolve_variable_bounds,
    solve_linear_program,
)
from repro.optimize.nnls import (
    ConstrainedLSResult,
    NNLSResult,
    constrained_nnls,
    kkt_residual,
    nnls_active_set,
)

__all__ = [
    "DualResult",
    "KLMap",
    "L2Map",
    "solve_dual",
    "NNLSResult",
    "nnls_active_set",
    "kkt_residual",
    "ConstrainedLSResult",
    "constrained_nnls",
    "LPResult",
    "BatchBoundsResult",
    "solve_linear_program",
    "bound_variables_batch",
    "presolve_variable_bounds",
    "IPFResult",
    "kruithof_scaling",
    "kl_divergence",
]
