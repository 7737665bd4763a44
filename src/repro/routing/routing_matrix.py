"""Construction of the routing matrix ``R`` from routed paths or route tables.

The routing matrix is the central object of the estimation problem
``R s = t`` (paper Eq. 1-2): ``R`` has one row per directed link and one
column per origin-destination pair; entry ``r_lp`` is 1 when the demand of
pair ``p`` traverses link ``l`` (or the traversed fraction for multi-path
routing).

:class:`RoutingMatrix` stores ``R`` as one canonical CSR matrix — a demand
crosses a handful of links, so even the paper's American network is under
1 % full — together with the link and pair orderings it was built from, so
downstream code never has to guess which row or column corresponds to
which network element.  It implements the
:class:`~repro.routing.backends.RoutingOperator` products itself
(:meth:`link_loads` / :meth:`matvec`, :meth:`rmatvec`, :meth:`matmat`,
:meth:`rmatmat`, :meth:`gram`, :meth:`link_gram`); :attr:`native` hands
the CSR to sparse-aware consumers, and :attr:`matrix` is the one dense
view, for the few algorithms that need one.  Expensive derived quantities
(numerical rank, path lengths, the Gram matrix, the link-Gram pattern, the
dense view itself) are computed once, cached, and left out of pickles.

The link Gram ``R diag(d) R'`` is what every Newton step of the dual
solver factors.  Its sparsity pattern depends on ``R`` only, so it is
analysed once per matrix (symbolic analysis once, numeric work per call,
as in Davis, *Direct Methods for Sparse Linear Systems*, 2006): the
pattern holds, for every structurally non-zero upper-triangle entry
``(i, k)``, the products ``R[i, p] R[k, p]`` of the pairs through both
links, and each :meth:`~RoutingMatrix.link_gram` call is one sparse
mat-vec with ``d``.

:func:`reroute` derives the matrix of a failure case from a base matrix:
only the columns that cross a failed element are routed again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np
import scipy.sparse

from repro import telemetry
from repro.errors import RoutingError
from repro.routing.backends import gram_rank
from repro.routing.shortest_path import Path, RouteTable, ShortestPathRouter, _route_pairs
from repro.topology.elements import NodePair, PairIndex
from repro.topology.network import Network

__all__ = [
    "RoutingMatrix",
    "RerouteResult",
    "build_routing_matrix",
    "build_ecmp_routing_matrix",
    "reroute",
]

#: Slack allowed around the [0, 1] entry range.
_ENTRY_TOLERANCE = 1e-12


class RoutingMatrix:
    """The routing matrix together with its row/column labelling.

    Parameters
    ----------
    matrix:
        Array-like or SciPy sparse matrix of shape ``(num_links,
        num_pairs)`` with entries in [0, 1].  It is stored as canonical
        CSR: duplicate entries summed, explicit zeros dropped and column
        indices sorted within each row.
    link_names:
        Row labels (canonical link order of the network).
    pairs:
        Column labels (canonical origin-destination pair order); adopted as
        is when already a :class:`~repro.topology.elements.PairIndex`.
    network:
        The network the matrix was built from; :func:`reroute` routes over
        it.

    The dense view, the pair Gram, the link-Gram pattern, the rank, the path
    lengths, the fingerprint and the counter names
    (:func:`~repro.measurement.collector.counter_names`) are derived on
    first use and cached; a pickle carries none of them (a spawn-mode pool
    pickles the matrix once per worker), so an unpickled matrix derives its
    own.
    """

    #: Lazily derived caches: reset on construction, dropped from pickles.
    _CACHES = (
        "_dense",
        "_gram",
        "_gram_pattern",
        "_rank",
        "_path_lengths",
        "_fingerprint",
        "_counter_names",
    )

    def __init__(
        self,
        matrix: Union[np.ndarray, scipy.sparse.spmatrix],
        link_names: Sequence[str],
        pairs: Sequence[NodePair],
        network: Optional[Network] = None,
    ) -> None:
        if not scipy.sparse.issparse(matrix) and np.ndim(matrix) != 2:
            raise RoutingError("routing matrix must be two-dimensional")
        csr = scipy.sparse.csr_matrix(matrix, dtype=float, copy=True)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        if csr.shape != (len(link_names), len(pairs)):
            raise RoutingError(
                f"routing matrix shape {csr.shape} does not match "
                f"{len(link_names)} links x {len(pairs)} pairs"
            )
        data = csr.data
        if data.size and (
            data.min() < -_ENTRY_TOLERANCE or data.max() > 1 + _ENTRY_TOLERANCE
        ):
            raise RoutingError("routing matrix entries must lie in [0, 1]")
        self._csr = csr
        self.link_names = tuple(link_names)
        self.pairs = PairIndex.of(pairs)
        self.network = network
        self._dense: Optional[np.ndarray] = None
        self._gram: Optional[np.ndarray] = None
        self._gram_pattern: Optional[_GramPattern] = None
        self._rank: Optional[int] = None
        self._path_lengths: Optional[np.ndarray] = None
        self._fingerprint: Optional[str] = None
        self._counter_names: Optional[tuple[str, ...]] = None

    def __getstate__(self) -> dict[str, object]:
        state = self.__dict__.copy()
        state.update(dict.fromkeys(self._CACHES))
        return state

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    @property
    def native(self) -> scipy.sparse.csr_matrix:
        """The canonical CSR storage (shared; do not mutate).

        For sparse-aware consumers (LP assembly, serialisation, rerouting,
        column slicing) — unlike :attr:`matrix`, this never materialises a dense
        copy.
        """
        return self._csr

    @property
    def matrix(self) -> np.ndarray:
        """Dense ndarray view of the routing matrix (cached; do not mutate).

        Prefer the operator-style products below; this view exists for the
        few algorithms (fanout's stacked NNLS, Vardi, Cao) that genuinely
        need a dense array.
        """
        if self._dense is None:
            self._dense = self._csr.toarray()
        return self._dense

    @property
    def density(self) -> float:
        """Fraction of non-zero entries (0 for an empty matrix)."""
        rows, cols = self.shape
        size = rows * cols
        return self._csr.nnz / size if size else 0.0

    # ------------------------------------------------------------------
    # shape and labelling
    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        """Number of rows (directed links)."""
        return self._csr.shape[0]

    @property
    def num_pairs(self) -> int:
        """Number of columns (origin-destination pairs)."""
        return self._csr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_links, num_pairs)``."""
        return self._csr.shape

    def pair_index(self, pair: NodePair) -> int:
        """Column index of ``pair``."""
        try:
            return self.pairs.position(pair)
        except KeyError as exc:
            raise RoutingError(f"pair {pair} not present in routing matrix") from exc

    def pair_column(self, pair: NodePair) -> np.ndarray:
        """Column of the matrix for ``pair`` (the links it traverses)."""
        return self._csr.getcol(self.pair_index(pair)).toarray().ravel()

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
        return self._csr @ demands

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
        return self._csr.T @ loads

    def matmat(self, demands: np.ndarray) -> np.ndarray:
        """``R @ demands`` for a dense ``(num_pairs, k)`` matrix of demand columns."""
        demands = np.asarray(demands, dtype=float)
        if demands.ndim != 2 or demands.shape[0] != self.num_pairs:
            raise RoutingError(
                f"demand matrix has shape {demands.shape}, expected ({self.num_pairs}, k)"
            )
        return np.asarray(self._csr @ demands)

    def rmatmat(self, loads: np.ndarray) -> np.ndarray:
        """``R.T @ loads`` for a dense ``(num_links, k)`` matrix of load columns."""
        loads = np.asarray(loads, dtype=float)
        if loads.ndim != 2 or loads.shape[0] != self.num_links:
            raise RoutingError(
                f"load matrix has shape {loads.shape}, expected ({self.num_links}, k)"
            )
        return np.asarray(self._csr.T @ loads)

    def gram(self) -> np.ndarray:
        """The dense ``(num_pairs, num_pairs)`` Gram matrix ``R.T @ R`` (cached)."""
        if self._gram is None:
            self._gram = np.asarray((self._csr.T @ self._csr).todense())
        return self._gram

    def link_gram(self, weights: np.ndarray) -> np.ndarray:
        """The dense ``(num_links, num_links)`` matrix ``R @ diag(weights) @ R.T``.

        One sparse mat-vec of the cached Gram pattern (built on the first
        call) with ``weights``, written into a zeroed array at each entry's
        upper and mirrored position, so the result is exactly symmetric and
        the link-space solvers never touch the dense ``(links, pairs)``
        view.  Each entry sums ``(R[i, p] R[k, p]) weights[p]`` over the
        pairs in ascending order, the order of a CSR product ``(R W) R'``:
        on 0/1 routing and power-of-two ECMP shares the two agree bit for
        bit.
        """
        if self._gram_pattern is None:
            self._gram_pattern = _GramPattern.of(self._csr)
        pattern = self._gram_pattern
        values = pattern.products @ weights
        gram = np.zeros(self.num_links * self.num_links)
        gram[pattern.lower] = values
        gram[pattern.upper] = values
        return gram.reshape(self.num_links, self.num_links)

    # ------------------------------------------------------------------
    # cached derived quantities
    # ------------------------------------------------------------------
    def rank(self) -> int:
        """Numerical rank of the routing matrix (computed once, then cached).

        The estimation problem is under-determined whenever the rank is
        smaller than the number of pairs, which is the normal situation in
        backbones (many more pairs than links).  The rank is read from the
        eigenvalues of the ``(num_links, num_links)`` link Gram ``R @ R.T``
        (see :func:`~repro.routing.backends.gram_rank`), so the matrix is
        never densified.  The first call builds the link-Gram pattern that
        :meth:`link_gram` reuses.
        """
        if self._rank is None:
            link_gram = self.link_gram(np.ones(self.num_pairs))
            self._rank = gram_rank(np.linalg.eigvalsh(link_gram))
        return self._rank

    def path_lengths(self) -> np.ndarray:
        """Per-pair path lengths (column sums; cached, read-only)."""
        if self._path_lengths is None:
            lengths = np.asarray(self._csr.sum(axis=0)).ravel()
            lengths.setflags(write=False)
            self._path_lengths = lengths
        return self._path_lengths

    def fingerprint(self) -> str:
        """Content hash of the routing state (computed once, then cached).

        The canonical CSR arrays are hashed together with the link and pair
        orderings, so identical routing state yields the same fingerprint
        however the matrix was passed in (dense, COO with duplicates, CSR),
        which is what lets a streaming checkpoint recognise its routing.
        The pair names come from the pair index's cache
        (:meth:`~repro.topology.elements.PairIndex.name_bytes`), which a
        rerouted matrix shares with its base.
        """
        if self._fingerprint is None:
            csr = self._csr
            digest = hashlib.sha256()
            digest.update(np.asarray(csr.shape, dtype=np.int64).tobytes())
            digest.update(csr.indptr.astype(np.int64).tobytes())
            digest.update(csr.indices.astype(np.int64).tobytes())
            digest.update(csr.data.astype(np.float64).tobytes())
            digest.update("\x00".join(self.link_names).encode())
            digest.update(self.pairs.name_bytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoutingMatrix(links={self.num_links}, pairs={self.num_pairs}, "
            f"rank={self.rank()}, density={self.density:.4f})"
        )


@dataclass(frozen=True)
class _GramPattern:
    """The symbolic part of ``R diag(d) R'``, computed once per routing matrix.

    Attributes
    ----------
    products:
        CSR with one row per structurally non-zero upper-triangle entry
        ``(i, k)``, ``i <= k``, of ``R R'`` (rows in row-major order) and one
        column per pair; entry ``(u, p)`` is ``R[i, p] R[k, p]``, pairs
        ascending within each row.  ``products @ d`` is the upper triangle.
    upper, lower:
        Flat positions ``i L + k`` and ``k L + i`` of each row in the
        ``L x L`` Gram.
    """

    products: scipy.sparse.csr_matrix
    upper: np.ndarray
    lower: np.ndarray

    @classmethod
    def of(cls, csr: scipy.sparse.csr_matrix) -> "_GramPattern":
        num_links, num_pairs = csr.shape
        with telemetry.span(
            "routing.link_gram_pattern", links=num_links, pairs=num_pairs
        ) as span:
            by_key = _pair_products(csr).T.tocsr()
            # The transpose is a counting sort by key: stable, so the pairs
            # stay ascending within each key.  Only the keys some pair hits
            # are kept.
            keys = np.flatnonzero(np.diff(by_key.indptr))
            indptr = np.zeros(keys.size + 1, dtype=by_key.indptr.dtype)
            indptr[1:] = by_key.indptr[keys + 1]
            products = scipy.sparse.csr_matrix(
                (by_key.data, by_key.indices, indptr), shape=(keys.size, num_pairs)
            )
            pattern = cls(products, keys, (keys % num_links) * num_links + keys // num_links)
            span.set_attributes(entries=products.nnz, bytes=pattern.nbytes)
        return pattern

    @property
    def nbytes(self) -> int:
        """Bytes the pattern retains."""
        arrays = (self.products.data, self.products.indices, self.products.indptr)
        return sum(array.nbytes for array in arrays + (self.upper, self.lower))


def _pair_products(csr: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    """Pair-major CSR of every product ``R[i, p] R[k, p]``, ``i <= k``, keyed ``i L + k``.

    Row ``p`` holds the ``m (m + 1) / 2`` products of pair ``p``'s ``m``-link
    path.  The pairs are processed grouped by path length, so each group is
    one vectorised triangle written to a contiguous block; one row gather
    then puts the pairs back in order.
    """
    num_links, num_pairs = csr.shape
    csc = csr.tocsc()  # from canonical CSR: rows ascending within each column
    lengths = np.diff(csc.indptr)
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    offsets = np.zeros(num_pairs + 1, dtype=np.int64)
    np.cumsum(sorted_lengths * (sorted_lengths + 1) // 2, out=offsets[1:])
    fits = max(num_links * num_links, int(offsets[-1])) < 2**31
    index_dtype = np.int32 if fits else np.int64
    keys = np.empty(int(offsets[-1]), dtype=index_dtype)
    products = np.empty(keys.size)
    link_rows = csc.indices.astype(index_dtype, copy=False)
    starts = np.flatnonzero(np.diff(sorted_lengths, prepend=-1))
    for start, stop in zip(starts.tolist(), starts[1:].tolist() + [num_pairs]):
        length = int(sorted_lengths[start])
        first, second = np.triu_indices(length)
        slots = csc.indptr[order[start:stop], None] + np.arange(length)
        rows, shares = link_rows[slots], csc.data[slots]
        block = slice(offsets[start], offsets[stop])
        shape = (stop - start, first.size)
        np.add(rows[:, first] * num_links, rows[:, second], out=keys[block].reshape(shape))
        np.multiply(shares[:, first], shares[:, second], out=products[block].reshape(shape))
    by_length = scipy.sparse.csr_matrix(
        (products, keys, offsets.astype(index_dtype)),
        shape=(num_pairs, num_links * num_links),
    )
    position = np.empty(num_pairs, dtype=np.intp)
    position[order] = np.arange(num_pairs)
    return by_length[position]


def build_routing_matrix(
    network: Network,
    paths: Optional[Mapping[NodePair, Path]] = None,
) -> RoutingMatrix:
    """Build the 0/1 single-path routing matrix for ``network``.

    Parameters
    ----------
    network:
        The topology.  Its canonical link and pair orderings become the row
        and column orderings of the matrix.
    paths:
        Pre-computed paths per pair, e.g. the CSPF routes of an LSP mesh
        (``CSPFRouter(network).route_all(bandwidths=...)``).  When omitted,
        plain shortest-path routing fills the CSR straight from
        :meth:`~repro.routing.shortest_path.ShortestPathRouter.route_table`
        (no per-pair :class:`Path` objects).
    """
    pairs = network.node_pairs()
    with telemetry.span(
        "routing.build_matrix", links=network.num_links, pairs=len(pairs)
    ):
        return _assemble_routing_matrix(network, pairs, paths)


def _assemble_routing_matrix(
    network: Network,
    pairs: PairIndex,
    paths: Optional[Mapping[NodePair, Path]],
) -> RoutingMatrix:
    if paths is None:
        table = ShortestPathRouter(network).route_table(pairs)
    else:
        missing = [pair for pair in pairs if pair not in paths]
        if missing:
            raise RoutingError(f"missing paths for pairs: {[str(p) for p in missing[:5]]}")
        table = RouteTable.from_links(
            network, ((paths[pair].links, paths[pair].cost) for pair in pairs)
        )
    # The table is R's column structure: pair p's links are column p's rows.
    csc = scipy.sparse.csc_matrix(
        (np.ones(table.links.size), table.links, table.offsets),
        shape=(network.num_links, len(pairs)),
    )
    return RoutingMatrix(csc, network.link_names, pairs, network=network)


@dataclass(frozen=True)
class RerouteResult:
    """Outcome of re-routing a routing matrix around failed elements.

    Attributes
    ----------
    failed_links, failed_nodes:
        The failed elements, sorted (links incident to failed nodes are
        implied, not listed).
    rerouted:
        Pairs whose base column crossed a failed link, in pair order; every
        other column is the base column.
    infeasible:
        The subset of ``rerouted`` left without a path: a failed endpoint,
        or a partition.
    """

    failed_links: tuple[str, ...]
    failed_nodes: tuple[str, ...]
    rerouted: tuple[NodePair, ...]
    infeasible: tuple[NodePair, ...]

    @property
    def is_feasible(self) -> bool:
        """Whether every demand still has a path."""
        return not self.infeasible


def reroute(
    base: RoutingMatrix,
    failed_links: Iterable[str] = (),
    failed_nodes: Iterable[str] = (),
) -> tuple[RoutingMatrix, RerouteResult]:
    """The routing matrix ``base`` becomes when links and nodes fail.

    A failed node fails its incident links too.  The pairs whose base
    column crosses a failed link are re-routed on IGP shortest paths (link
    metrics, the tie-breaking of :class:`ShortestPathRouter`) over
    ``base.network`` with the failed links masked out, whatever built
    ``base``; Dijkstra runs from their destinations only.  Every other
    column is copied from ``base`` bit for bit.  A pair with a failed
    endpoint, or one the failure disconnects, is infeasible and gets an
    empty column.  The result keeps ``base``'s link names and pair index;
    when no pair is affected it is ``base`` itself.

    Raises ``RoutingError`` when ``base`` carries no network (or one whose
    links are not its rows) and ``TopologyError`` for an unknown link or
    node, before any routing.
    """
    network = base.network
    if network is None or network.link_names != base.link_names:
        raise RoutingError("reroute needs a routing matrix whose rows are its network's links")
    failed_links = tuple(sorted(set(failed_links)))
    failed_nodes = tuple(sorted(set(failed_nodes)))
    failed = np.zeros(network.num_links, dtype=bool)
    # An unknown link or node raises TopologyError here, before any routing.
    failed[[network.link_index(name) for name in failed_links]] = True
    for name in failed_nodes:
        for link in network.outgoing_links(name) + network.incoming_links(name):
            failed[network.link_index(link.name)] = True

    csr = base.native
    rows = np.repeat(np.arange(base.num_links), np.diff(csr.indptr))
    # Every path through a failed node uses one of its links, so the failed
    # rows name every affected column.
    affected = np.unique(csr.indices[failed[rows]])
    pairs = base.pairs
    if not affected.size:
        return base, RerouteResult(failed_links, failed_nodes, (), ())
    rerouted = tuple(pairs[column] for column in affected.tolist())
    dead = set(failed_nodes)
    stranded = np.array(
        [pair.origin in dead or pair.destination in dead for pair in rerouted], dtype=bool
    )
    routed = affected[~stranded]
    table, reachable = _route_pairs(
        network, [pairs[column] for column in routed.tolist()], attrgetter("metric"), failed
    )
    infeasible = stranded.copy()
    infeasible[~stranded] = ~reachable

    moved = np.zeros(base.num_pairs, dtype=bool)
    moved[affected] = True
    kept = ~moved[csr.indices]
    coo = scipy.sparse.coo_matrix(
        (
            np.concatenate([csr.data[kept], np.ones(table.links.size)]),
            (
                np.concatenate([rows[kept], table.links]),
                np.concatenate([csr.indices[kept], np.repeat(routed, np.diff(table.offsets))]),
            ),
        ),
        shape=base.shape,
    )
    matrix = RoutingMatrix(coo, base.link_names, pairs, network=network)
    result = RerouteResult(
        failed_links,
        failed_nodes,
        rerouted,
        tuple(pair for pair, lost in zip(rerouted, infeasible.tolist()) if lost),
    )
    return matrix, result


def build_ecmp_routing_matrix(network: Network) -> RoutingMatrix:
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
    return RoutingMatrix(coo, network.link_names, pairs, network=network)
