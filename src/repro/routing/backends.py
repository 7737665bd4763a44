"""Pluggable linear-algebra backends for the routing matrix.

The routing matrix of a backbone is extremely sparse: a demand traverses a
handful of links, so the fraction of non-zero entries scales like
``mean_path_length / num_links`` and drops quickly with network size (the
paper's American network is already below 2 % dense).  Storing ``R`` as a
dense ndarray is convenient for the small European network but wasteful for
anything production-scale, and every downstream consumer that writes
``R @ s`` forces the dense representation.

This module hides the storage decision behind a small operator interface:

* :class:`DenseBackend` — a NumPy ndarray, best for small or dense matrices;
* :class:`SparseBackend` — a SciPy CSR matrix, best for large sparse ones;
* :func:`make_backend` — normalises any input (ndarray, sparse matrix or an
  existing backend) and auto-selects the representation by size and density.

Consumers interact through ``matvec`` / ``rmatvec`` / ``matmat`` /
``rmatmat`` (operator-style products), ``row`` / ``column`` (dense slices)
and ``gram`` (the cached ``R' R``); ``toarray`` materialises — and caches —
the dense view for the few algorithms that genuinely need it (active-set
NNLS, LP constraint blocks).  Both backends produce numerically matching
results, so the choice is purely a performance knob.
"""

from __future__ import annotations

import abc
from typing import Protocol, Union, runtime_checkable

import numpy as np
import scipy.sparse

from repro.errors import RoutingError

__all__ = [
    "RoutingOperator",
    "RoutingBackend",
    "DenseBackend",
    "SparseBackend",
    "make_backend",
    "gram_rank",
    "SPARSE_SIZE_THRESHOLD",
    "SPARSE_DENSITY_THRESHOLD",
]

#: Below this many entries the dense representation is always used: the
#: constant factors of sparse formats only pay off for larger systems.
SPARSE_SIZE_THRESHOLD = 50_000

#: Above this fill fraction the dense representation is used regardless of
#: size (CSR products beat BLAS only on genuinely sparse data).
SPARSE_DENSITY_THRESHOLD = 0.25


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
    consumers: solvers written against ``RoutingOperator`` work with every
    :class:`RoutingBackend` implementation — and, crucially, they cannot
    densify, because the protocol deliberately omits ``toarray``.  Code
    that needs the dense view must take a concrete backend and justify the
    materialisation to reprolint's sparse-safety rule.
    (:class:`~repro.routing.routing_matrix.RoutingMatrix` forwards the
    product methods to its backend and exposes the full operator via its
    ``backend`` property.)

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


class RoutingBackend(abc.ABC):
    """Operator-style storage of a ``(num_links, num_pairs)`` matrix."""

    #: Short identifier (``"dense"`` / ``"sparse"``) used in reprs and tests.
    kind: str = "abstract"

    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, int]:
        """``(num_links, num_pairs)``."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of structurally non-zero entries."""

    @property
    def density(self) -> float:
        """Fraction of non-zero entries (0 for an empty matrix)."""
        rows, cols = self.shape
        size = rows * cols
        return self.nnz / size if size else 0.0

    @abc.abstractmethod
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``R @ x`` for a vector ``x`` of length ``num_pairs``."""

    @abc.abstractmethod
    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``R.T @ y`` for a vector ``y`` of length ``num_links``."""

    @abc.abstractmethod
    def matmat(self, X: np.ndarray) -> np.ndarray:
        """``R @ X`` for a dense ``(num_pairs, k)`` matrix, returned dense."""

    @abc.abstractmethod
    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        """``R.T @ Y`` for a dense ``(num_links, k)`` matrix, returned dense."""

    @abc.abstractmethod
    def row(self, index: int) -> np.ndarray:
        """Dense copy of one row."""

    @abc.abstractmethod
    def column(self, index: int) -> np.ndarray:
        """Dense copy of one column."""

    @abc.abstractmethod
    def column_sums(self) -> np.ndarray:
        """Per-column sums (the path length of every pair)."""

    @abc.abstractmethod
    def gram(self) -> np.ndarray:
        """The dense Gram matrix ``R.T @ R`` (cached)."""

    @abc.abstractmethod
    def link_gram(self, weights: np.ndarray) -> np.ndarray:
        """The dense ``(num_links, num_links)`` matrix ``R @ diag(weights) @ R.T``."""

    @abc.abstractmethod
    def toarray(self) -> np.ndarray:
        """Dense ndarray view (cached; do not mutate)."""

    @abc.abstractmethod
    def validate_entries(self, tolerance: float = 1e-12) -> None:
        """Raise :class:`RoutingError` unless every entry lies in [0, 1]."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows, cols = self.shape
        return f"{type(self).__name__}({rows}x{cols}, density={self.density:.3f})"


class DenseBackend(RoutingBackend):
    """Routing matrix stored as a contiguous NumPy array."""

    kind = "dense"

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.ascontiguousarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise RoutingError("routing matrix must be two-dimensional")
        self._matrix = matrix
        self._gram: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        rows, cols = self._matrix.shape
        return (int(rows), int(cols))

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._matrix))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._matrix @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self._matrix.T @ y

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self._matrix @ X

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return self._matrix.T @ Y

    def row(self, index: int) -> np.ndarray:
        return self._matrix[index]

    def column(self, index: int) -> np.ndarray:
        return self._matrix[:, index]

    def column_sums(self) -> np.ndarray:
        return self._matrix.sum(axis=0)

    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = self._matrix.T @ self._matrix
        return self._gram

    def link_gram(self, weights: np.ndarray) -> np.ndarray:
        return (self._matrix * weights) @ self._matrix.T

    def toarray(self) -> np.ndarray:
        return self._matrix

    def validate_entries(self, tolerance: float = 1e-12) -> None:
        if np.any(self._matrix < -tolerance) or np.any(self._matrix > 1 + tolerance):
            raise RoutingError("routing matrix entries must lie in [0, 1]")


class SparseBackend(RoutingBackend):
    """Routing matrix stored in compressed sparse row (CSR) format."""

    kind = "sparse"

    def __init__(self, matrix: Union[np.ndarray, scipy.sparse.spmatrix]) -> None:
        sparse = scipy.sparse.csr_matrix(matrix, dtype=float)
        if sparse.ndim != 2:
            raise RoutingError("routing matrix must be two-dimensional")
        sparse.eliminate_zeros()
        self._matrix = sparse
        self._dense: np.ndarray | None = None
        self._gram: np.ndarray | None = None

    @property
    def raw(self) -> scipy.sparse.csr_matrix:
        """The underlying CSR matrix (for sparse-aware consumers)."""
        return self._matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    @property
    def nnz(self) -> int:
        return int(self._matrix.nnz)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._matrix @ np.asarray(x, dtype=float)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self._matrix.T @ np.asarray(y, dtype=float)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self._matrix @ X)

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        return np.asarray(self._matrix.T @ Y)

    def row(self, index: int) -> np.ndarray:
        return self._matrix.getrow(index).toarray().ravel()

    def column(self, index: int) -> np.ndarray:
        return self._matrix.getcol(index).toarray().ravel()

    def column_sums(self) -> np.ndarray:
        return np.asarray(self._matrix.sum(axis=0)).ravel()

    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = np.asarray((self._matrix.T @ self._matrix).todense())
        return self._gram

    def link_gram(self, weights: np.ndarray) -> np.ndarray:
        scaled = self._matrix.copy()
        scaled.data *= weights[scaled.indices]
        return (scaled @ self._matrix.T).toarray()

    def toarray(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self._matrix.toarray()
        return self._dense

    def validate_entries(self, tolerance: float = 1e-12) -> None:
        data = self._matrix.data
        if data.size and (data.min() < -tolerance or data.max() > 1 + tolerance):
            raise RoutingError("routing matrix entries must lie in [0, 1]")


def make_backend(
    matrix: Union[np.ndarray, scipy.sparse.spmatrix, RoutingBackend],
    backend: str = "auto",
) -> RoutingBackend:
    """Wrap ``matrix`` in a routing backend.

    Parameters
    ----------
    matrix:
        Dense array, SciPy sparse matrix, or an existing backend (returned
        as-is when it already matches the requested kind).
    backend:
        ``"dense"``, ``"sparse"`` or ``"auto"``.  Auto selection picks the
        sparse representation when the matrix has at least
        :data:`SPARSE_SIZE_THRESHOLD` entries and a fill fraction of at most
        :data:`SPARSE_DENSITY_THRESHOLD`; small or dense matrices stay dense.
    """
    if backend not in ("auto", "dense", "sparse"):
        raise RoutingError(f"unknown routing backend {backend!r}")
    if isinstance(matrix, RoutingBackend):
        if backend == "auto" or matrix.kind == backend:
            return matrix
        if backend == "dense":
            return DenseBackend(matrix.toarray())
        source = matrix.raw if isinstance(matrix, SparseBackend) else matrix.toarray()
        return SparseBackend(source)
    if backend == "dense":
        if scipy.sparse.issparse(matrix):
            matrix = matrix.toarray()
        return DenseBackend(matrix)
    if backend == "sparse":
        return SparseBackend(matrix)
    # Auto selection by size and density.
    if scipy.sparse.issparse(matrix):
        rows, cols = matrix.shape
        size = rows * cols
        density = matrix.nnz / size if size else 0.0
    else:
        matrix = np.asarray(matrix, dtype=float)
        size = matrix.size
        density = np.count_nonzero(matrix) / size if size else 0.0
    if size >= SPARSE_SIZE_THRESHOLD and density <= SPARSE_DENSITY_THRESHOLD:
        return SparseBackend(matrix)
    if scipy.sparse.issparse(matrix):
        matrix = matrix.toarray()
    return DenseBackend(matrix)
