"""The operator contract solvers assume of a routing matrix.

The routing matrix of a backbone is extremely sparse: a demand traverses a
handful of links, so the fraction of non-zero entries scales like
``mean_path_length / num_links`` and drops quickly with network size (the
paper's American network is already below 2 % dense).
:class:`~repro.routing.routing_matrix.RoutingMatrix` therefore stores ``R``
in one CSR matrix and implements the products itself.  This module holds
what solvers may assume of it:

* :class:`RoutingOperator` — the typed, ``toarray``-free operator surface
  (``shape``, ``matvec``, ``rmatvec``, ``gram``, ``link_gram``);
* :func:`gram_rank` — the numerical rank read from a Gram's eigenvalues,
  shared by :meth:`RoutingMatrix.rank` and the worst-case-bound pinning.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["RoutingOperator", "gram_rank"]


def gram_rank(eigenvalues: np.ndarray) -> int:
    """Numerical rank of ``M`` from the eigenvalues of its Gram ``M @ M.T``.

    An eigenvalue counts when it exceeds ``max * size * eps``, the tolerance
    ``np.linalg.matrix_rank`` would apply to the Gram itself.  The Gram
    squares ``M``'s singular values, so singular values below about
    ``1e-7`` of the largest are not resolved; routing systems (0/1 or
    ECMP-fraction entries) keep theirs far above that.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    tolerance = eigenvalues.max(initial=0.0) * eigenvalues.size * np.finfo(float).eps
    return int(np.count_nonzero(eigenvalues > tolerance))


@runtime_checkable
class RoutingOperator(Protocol):
    """The operator surface estimation code may assume of a routing matrix.

    This is the *typed contract* between the routing layer and its
    consumers: :class:`~repro.routing.routing_matrix.RoutingMatrix`
    implements it, tests substitute fakes for it, and solvers written
    against it cannot densify, because the protocol deliberately omits the
    dense view.  Code that needs the dense view must take a
    ``RoutingMatrix`` and justify the materialisation to reprolint's
    sparse-safety rule.

    mypy checks structural conformance (``repro.routing`` and
    ``repro.estimation`` are type-checked in CI); the protocol is also
    ``runtime_checkable`` so tests can assert conformance with
    ``isinstance``.
    """

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_links, num_pairs)``."""
        ...

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``R @ x`` for a vector ``x`` of length ``num_pairs``."""
        ...

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``R.T @ y`` for a vector ``y`` of length ``num_links``."""
        ...

    def gram(self) -> np.ndarray:
        """The dense Gram matrix ``R.T @ R``."""
        ...

    def link_gram(self, weights: np.ndarray) -> np.ndarray:
        """The dense link-space matrix ``R @ diag(weights) @ R.T``."""
        ...
