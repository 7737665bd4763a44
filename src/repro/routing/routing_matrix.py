"""Construction of the routing matrix ``R`` from routed paths.

The routing matrix is the central object of the estimation problem
``R s = t`` (paper Eq. 1-2): ``R`` has one row per directed link and one
column per origin-destination pair; entry ``r_lp`` is 1 when the demand of
pair ``p`` traverses link ``l`` (or the traversed fraction for multi-path
routing).

:class:`RoutingMatrix` bundles the storage backend (dense ndarray or SciPy
CSR, auto-selected by size and density — see :mod:`repro.routing.backends`)
with the link and pair orderings it was built from, so downstream code never
has to guess which row or column corresponds to which network element.
Consumers should prefer the operator-style products (:meth:`link_loads` /
:meth:`matvec`, :meth:`rmatvec`, :meth:`matmat`, :meth:`gram`) over the
dense :attr:`matrix` view; expensive derived quantities (numerical rank,
path lengths, the Gram matrix, the dense view itself) are computed once and
cached.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

import numpy as np
import scipy.sparse

from repro import telemetry
from repro.errors import RoutingError
from repro.routing.backends import RoutingBackend, make_backend
from repro.routing.cspf import CSPFRouter
from repro.routing.shortest_path import Path, ShortestPathRouter
from repro.topology.elements import NodePair
from repro.topology.network import Network

__all__ = ["RoutingMatrix", "build_routing_matrix", "build_ecmp_routing_matrix"]


class RoutingMatrix:
    """The routing matrix together with its row/column labelling.

    Parameters
    ----------
    matrix:
        Array-like or SciPy sparse matrix of shape ``(num_links,
        num_pairs)`` with entries in [0, 1]; an existing
        :class:`~repro.routing.backends.RoutingBackend` is also accepted.
    link_names:
        Row labels (canonical link order of the network).
    pairs:
        Column labels (canonical origin-destination pair order).
    network:
        The network the matrix was built from (kept for convenience).
    backend:
        Storage backend: ``"auto"`` (default — sparse CSR for large sparse
        matrices, dense otherwise), ``"dense"`` or ``"sparse"``.
    """

    def __init__(
        self,
        matrix: Union[np.ndarray, scipy.sparse.spmatrix, RoutingBackend],
        link_names: Sequence[str],
        pairs: Sequence[NodePair],
        network: Optional[Network] = None,
        backend: str = "auto",
    ) -> None:
        self._backend = make_backend(matrix, backend=backend)
        if self._backend.shape != (len(link_names), len(pairs)):
            raise RoutingError(
                f"routing matrix shape {self._backend.shape} does not match "
                f"{len(link_names)} links x {len(pairs)} pairs"
            )
        self._backend.validate_entries()
        self.link_names = tuple(link_names)
        self.pairs = tuple(pairs)
        self.network = network
        self._pair_index = {pair: idx for idx, pair in enumerate(self.pairs)}
        self._link_index = {name: idx for idx, name in enumerate(self.link_names)}
        self._rank: Optional[int] = None
        self._path_lengths: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # backend / storage
    # ------------------------------------------------------------------
    @property
    def backend(self) -> RoutingBackend:
        """The storage backend in use."""
        return self._backend

    @property
    def backend_kind(self) -> str:
        """``"dense"`` or ``"sparse"``."""
        return self._backend.kind

    @property
    def matrix(self) -> np.ndarray:
        """Dense ndarray view of the routing matrix (cached; do not mutate).

        Prefer the operator-style products below; this view exists for the
        few algorithms (active-set NNLS, LP constraint assembly, column
        slicing) that genuinely need a dense array.
        """
        return self._backend.toarray()

    @property
    def native(self) -> Union[np.ndarray, scipy.sparse.csr_matrix]:
        """The matrix in its native storage: CSR when sparse, ndarray when dense.

        For consumers (LP assembly, iterative scaling) that can work with
        either representation directly — unlike :attr:`matrix`, this never
        materialises a dense copy on a sparse backend.
        """
        if self._backend.kind == "sparse":
            return self._backend.raw
        return self._backend.toarray()

    def with_backend(self, backend: str) -> "RoutingMatrix":
        """Return a copy of this routing matrix using the given backend."""
        return RoutingMatrix(
            self._backend.toarray(),
            self.link_names,
            self.pairs,
            network=self.network,
            backend=backend,
        )

    @property
    def density(self) -> float:
        """Fraction of non-zero entries."""
        return self._backend.density

    # ------------------------------------------------------------------
    # shape and labelling
    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        """Number of rows (directed links)."""
        return self._backend.shape[0]

    @property
    def num_pairs(self) -> int:
        """Number of columns (origin-destination pairs)."""
        return self._backend.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_links, num_pairs)``."""
        return self._backend.shape

    def pair_index(self, pair: NodePair) -> int:
        """Column index of ``pair``."""
        try:
            return self._pair_index[pair]
        except KeyError as exc:
            raise RoutingError(f"pair {pair} not present in routing matrix") from exc

    def link_row(self, link_name: str) -> np.ndarray:
        """Row of the matrix for ``link_name``."""
        try:
            return self._backend.row(self._link_index[link_name])
        except KeyError as exc:
            raise RoutingError(f"link {link_name!r} not present in routing matrix") from exc

    def pair_column(self, pair: NodePair) -> np.ndarray:
        """Column of the matrix for ``pair`` (the links it traverses)."""
        return self._backend.column(self.pair_index(pair))

    # ------------------------------------------------------------------
    # operator-style products
    # ------------------------------------------------------------------
    def link_loads(self, demands: np.ndarray) -> np.ndarray:
        """Compute ``t = R s`` for a demand vector ``s``.

        This is how the paper constructs its consistent evaluation data set
        (Section 5.1.4): link loads are computed from the measured demands
        and the simulated routing, not measured separately.
        """
        demands = np.asarray(demands, dtype=float)
        if demands.shape != (self.num_pairs,):
            raise RoutingError(
                f"demand vector has shape {demands.shape}, expected ({self.num_pairs},)"
            )
        return self._backend.matvec(demands)

    def matvec(self, demands: np.ndarray) -> np.ndarray:
        """``R @ demands`` (alias of :meth:`link_loads`)."""
        return self.link_loads(demands)

    def rmatvec(self, loads: np.ndarray) -> np.ndarray:
        """``R.T @ loads`` for a link-load vector."""
        loads = np.asarray(loads, dtype=float)
        if loads.shape != (self.num_links,):
            raise RoutingError(
                f"load vector has shape {loads.shape}, expected ({self.num_links},)"
            )
        return self._backend.rmatvec(loads)

    def matmat(self, demands: np.ndarray) -> np.ndarray:
        """``R @ demands`` for a dense ``(num_pairs, k)`` matrix of demand columns."""
        demands = np.asarray(demands, dtype=float)
        if demands.ndim != 2 or demands.shape[0] != self.num_pairs:
            raise RoutingError(
                f"demand matrix has shape {demands.shape}, expected ({self.num_pairs}, k)"
            )
        return self._backend.matmat(demands)

    def rmatmat(self, loads: np.ndarray) -> np.ndarray:
        """``R.T @ loads`` for a dense ``(num_links, k)`` matrix of load columns."""
        loads = np.asarray(loads, dtype=float)
        if loads.ndim != 2 or loads.shape[0] != self.num_links:
            raise RoutingError(
                f"load matrix has shape {loads.shape}, expected ({self.num_links}, k)"
            )
        return self._backend.rmatmat(loads)

    def gram(self) -> np.ndarray:
        """The Gram matrix ``R.T @ R`` (dense, cached by the backend)."""
        return self._backend.gram()

    # ------------------------------------------------------------------
    # cached derived quantities
    # ------------------------------------------------------------------
    def rank(self) -> int:
        """Numerical rank of the routing matrix (computed once, then cached).

        The estimation problem is under-determined whenever the rank is
        smaller than the number of pairs, which is the normal situation in
        backbones (many more pairs than links).
        """
        if self._rank is None:
            self._rank = int(np.linalg.matrix_rank(self._backend.toarray()))
        return self._rank

    def nullity(self) -> int:
        """Dimension of the null space, i.e. the degrees of freedom left free."""
        return self.num_pairs - self.rank()

    def is_underdetermined(self) -> bool:
        """Whether ``R s = t`` has infinitely many non-negative candidates."""
        return self.rank() < self.num_pairs

    def path_lengths(self) -> np.ndarray:
        """Per-pair path lengths (column sums; cached, read-only)."""
        if self._path_lengths is None:
            lengths = self._backend.column_sums()
            lengths.setflags(write=False)
            self._path_lengths = lengths
        return self._path_lengths

    def path_length(self, pair: NodePair) -> float:
        """Number of links (possibly fractional for ECMP) used by ``pair``."""
        return float(self.path_lengths()[self.pair_index(pair)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoutingMatrix(links={self.num_links}, pairs={self.num_pairs}, "
            f"rank={self.rank()}, backend={self.backend_kind!r})"
        )


def build_routing_matrix(
    network: Network,
    paths: Optional[Mapping[NodePair, Path]] = None,
    use_cspf: bool = False,
    bandwidths: Optional[Mapping[NodePair, float]] = None,
    backend: str = "auto",
) -> RoutingMatrix:
    """Build the 0/1 single-path routing matrix for ``network``.

    Parameters
    ----------
    network:
        The topology.  Its canonical link and pair orderings become the row
        and column orderings of the matrix.
    paths:
        Pre-computed paths per pair.  When omitted, paths are computed with
        plain shortest-path routing or, if ``use_cspf`` is set, with the
        CSPF simulator and the given ``bandwidths``.
    use_cspf:
        Route with :class:`~repro.routing.cspf.CSPFRouter` instead of plain
        Dijkstra.
    bandwidths:
        LSP bandwidth values used by CSPF (ignored otherwise).
    backend:
        Storage backend passed to :class:`RoutingMatrix` (``"auto"``,
        ``"dense"`` or ``"sparse"``).
    """
    pairs = network.node_pairs()
    with telemetry.span(
        "routing.build_matrix", links=network.num_links, pairs=len(pairs)
    ):
        return _assemble_routing_matrix(network, pairs, paths, use_cspf, bandwidths, backend)


def _assemble_routing_matrix(
    network: Network,
    pairs: tuple[NodePair, ...],
    paths: Optional[Mapping[NodePair, Path]],
    use_cspf: bool,
    bandwidths: Optional[Mapping[NodePair, float]],
    backend: str,
) -> RoutingMatrix:
    if paths is None:
        if use_cspf:
            router = CSPFRouter(network)
            paths = router.route_all(bandwidths=dict(bandwidths or {}))
        else:
            paths = ShortestPathRouter(network).route_all(pairs)
    missing = [pair for pair in pairs if pair not in paths]
    if missing:
        raise RoutingError(f"missing paths for pairs: {[str(p) for p in missing[:5]]}")

    # Assemble in coordinate form in one vectorized pass: row indices come
    # from a single generator sweep over the paths (plain dict lookups, no
    # per-traversal method calls), column indices from one np.repeat over
    # the per-pair path lengths.
    link_index = {name: idx for idx, name in enumerate(network.link_names)}
    lengths = np.fromiter(
        (len(paths[pair].links) for pair in pairs), dtype=np.intp, count=len(pairs)
    )
    rows = np.fromiter(
        (link_index[link.name] for pair in pairs for link in paths[pair].links),
        dtype=np.intp,
        count=int(lengths.sum()),
    )
    cols = np.repeat(np.arange(len(pairs)), lengths)
    coo = scipy.sparse.coo_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(network.num_links, len(pairs))
    )
    return RoutingMatrix(coo, network.link_names, pairs, network=network, backend=backend)


def build_ecmp_routing_matrix(network: Network, backend: str = "auto") -> RoutingMatrix:
    """Build a fractional routing matrix with even ECMP splitting.

    Every equal-cost shortest path of a pair carries ``1/k`` of the demand,
    where ``k`` is the number of such paths.  The paper notes that the
    formulation extends to this case by allowing fractional entries in
    ``R``; this builder exists to exercise that extension.
    """
    pairs = network.node_pairs()
    router = ShortestPathRouter(network)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for col, pair in enumerate(pairs):
        ecmp_paths = router.all_shortest_paths(pair)
        share = 1.0 / len(ecmp_paths)
        for path in ecmp_paths:
            for link in path.links:
                rows.append(network.link_index(link.name))
                cols.append(col)
                data.append(share)
    coo = scipy.sparse.coo_matrix(
        (data, (rows, cols)), shape=(network.num_links, len(pairs))
    )
    # Duplicate (row, col) entries from shared links are summed by COO->CSR.
    return RoutingMatrix(coo, network.link_names, pairs, network=network, backend=backend)
