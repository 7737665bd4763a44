"""Basic network elements: PoPs and directed links.

The paper studies PoP-to-PoP traffic matrices on Global Crossing's backbone,
where core routers located in the same city are aggregated into a point of
presence (PoP).  The generators build such PoP-level networks directly, and
the data model has four concepts:

* :class:`Node` — a PoP.  A node has a *role* (:class:`NodeRole`) that
  records whether it terminates traffic as an access point, exchanges
  traffic with other carriers as a peering point, or only transits traffic.
* :class:`Link` — a directed link with a capacity and a propagation metric
  used by the IGP/CSPF routing algorithms.
* :class:`NodePair` — an ordered origin-destination pair, the unit at which
  demands are expressed.
* :class:`PairIndex` — an immutable, duplicate-free ordering of node pairs
  that every pair-indexed object (routing matrix, traffic matrices,
  estimation problems and results) shares.

All elements are immutable value objects; the mutable container that ties
them together is :class:`repro.topology.network.Network`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse

from repro.errors import TopologyError

__all__ = [
    "NodeRole",
    "Node",
    "Link",
    "NodePair",
    "PairIndex",
]


class NodeRole(enum.Enum):
    """Functional role of a node in the backbone.

    The generalised gravity model of Zhang et al. treats access and peering
    nodes differently (traffic between two peering points is forced to
    zero), so the role must be part of the data model even though the simple
    gravity model studied in most of the paper ignores it.
    """

    ACCESS = "access"
    PEERING = "peering"
    TRANSIT = "transit"

    def terminates_traffic(self) -> bool:
        """Return ``True`` if demands may originate or terminate here.

        Transit nodes only forward traffic; they never appear as the source
        or destination of a point-to-point demand.
        """
        return self is not NodeRole.TRANSIT


@dataclass(frozen=True, order=True)
class Node:
    """A PoP.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"LON"``.
    role:
        Functional role (access, peering or transit).
    population:
        Relative size of the user population served by the node.  The
        synthetic traffic generators use it to shape the spatial demand
        distribution; it has no meaning for estimation methods.
    """

    name: str
    role: NodeRole = NodeRole.ACCESS
    population: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("node name must be a non-empty string")
        if self.population < 0:
            raise TopologyError(
                f"node {self.name!r} has negative population {self.population}"
            )

    def is_edge(self) -> bool:
        """Return ``True`` if the node can originate or sink demands."""
        return self.role.terminates_traffic()


@dataclass(frozen=True)
class Link:
    """A directed link between two nodes.

    Parameters
    ----------
    source, target:
        Names of the endpoint nodes.  Links are directed: traffic flows
        from ``source`` to ``target``.
    capacity_mbps:
        Link capacity in Mbit/s.  Used by the CSPF routing substrate for
        bandwidth-constrained path selection and by the measurement layer
        for utilisation computation.
    metric:
        IGP metric / administrative weight used by shortest-path routing.
    name:
        Optional explicit identifier.  When omitted a canonical
        ``"source->target"`` name is generated.
    """

    source: str
    target: str
    capacity_mbps: float = 10_000.0
    metric: float = 1.0
    name: str = field(default="")

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise TopologyError("link endpoints must be non-empty strings")
        if self.source == self.target:
            raise TopologyError(f"self-loop link at node {self.source!r}")
        if self.capacity_mbps <= 0:
            raise TopologyError(
                f"link {self.source}->{self.target} has non-positive capacity"
            )
        if self.metric <= 0:
            raise TopologyError(
                f"link {self.source}->{self.target} has non-positive metric"
            )
        if not self.name:
            object.__setattr__(self, "name", f"{self.source}->{self.target}")

    def reversed(self) -> "Link":
        """Return the link in the opposite direction with identical attributes."""
        return Link(
            source=self.target,
            target=self.source,
            capacity_mbps=self.capacity_mbps,
            metric=self.metric,
        )


@dataclass(frozen=True, order=True)
class NodePair:
    """An ordered origin-destination pair ``(origin, destination)``.

    The traffic matrix is indexed by node pairs; a network with ``N`` edge
    nodes has ``P = N * (N - 1)`` distinct pairs (diagonal excluded, as in
    the paper).
    """

    origin: str
    destination: str

    def __post_init__(self) -> None:
        if not self.origin or not self.destination:
            raise TopologyError("node pair endpoints must be non-empty strings")
        if self.origin == self.destination:
            raise TopologyError(
                f"node pair with identical endpoints {self.origin!r}"
            )

    def reversed(self) -> "NodePair":
        """Return the pair for the opposite direction."""
        return NodePair(self.destination, self.origin)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.origin}->{self.destination}"


class PairIndex(tuple[NodePair, ...]):
    """An immutable, duplicate-free ordering of :class:`NodePair` objects.

    The index is a ``tuple`` subclass, so it iterates, indexes, measures and
    compares exactly like the tuple of pairs it holds.  On top of that it
    caches the lookups every pair-indexed object needs — :meth:`position`
    (pair to vector position), :meth:`codes` (integer origin/destination
    codes per pair), :meth:`cells` (each pair's cell in the flat
    origin-by-destination table) and :meth:`name_bytes` (the pair names a
    routing fingerprint hashes) — so objects that share one index never
    rebuild them.  :meth:`repro.topology.network.Network.node_pairs`
    caches one :meth:`mesh` per network; the routing matrix, traffic
    matrices, estimation problems and results built from that network all
    share it, which makes wrapping a demand vector O(1).

    Duplicates are rejected once, when the index is built.  ``tuple(index)``
    copies the pairs into a plain tuple and drops the caches; use
    :meth:`of` to adopt an existing index.  Pickling carries only the pairs.
    """

    _codes: tuple[tuple[str, ...], tuple[str, ...], np.ndarray, np.ndarray]
    _cells: np.ndarray
    _positions: Optional[dict[NodePair, int]]
    _name_bytes: Optional[bytes]

    def __new__(cls, pairs: Iterable[NodePair] = ()) -> "PairIndex":
        self = super().__new__(cls, pairs)
        origin_of: dict[str, int] = {}
        destination_of: dict[str, int] = {}
        origin_codes = np.fromiter(
            (origin_of.setdefault(pair.origin, len(origin_of)) for pair in self),
            dtype=np.intp,
            count=len(self),
        )
        destination_codes = np.fromiter(
            (destination_of.setdefault(pair.destination, len(destination_of)) for pair in self),
            dtype=np.intp,
            count=len(self),
        )
        # A pair is its (origin, destination), so equal code pairs are duplicates.
        cells = origin_codes * len(destination_of) + destination_codes
        if np.unique(cells).size != len(self):
            raise TopologyError("duplicate origin-destination pairs")
        self._adopt(tuple(origin_of), tuple(destination_of), origin_codes, destination_codes, cells)
        return self

    @classmethod
    def mesh(cls, names: Sequence[str]) -> "PairIndex":
        """Every ordered pair of distinct ``names``, by origin and then destination.

        Equal, pairs and caches alike, to ``PairIndex(NodePair(o, d) for o in
        names for d in names if o != d)``, built in array passes: the names
        are checked once (non-empty and unique, which implies every check
        :class:`NodePair` makes per pair) and the codes and cells are
        computed rather than looked up.  Raises
        :class:`~repro.errors.TopologyError` for an empty or repeated name.
        """
        names = tuple(names)
        if not all(names):
            raise TopologyError("node pair endpoints must be non-empty strings")
        if len(set(names)) != len(names):
            raise TopologyError("duplicate names in a pair mesh")
        count = len(names)
        if count < 2:
            return cls()
        origin_codes = np.repeat(np.arange(count), count - 1)
        # Row i skips the diagonal: its k-th destination is name k, or k + 1 from k = i on.
        column = np.tile(np.arange(count - 1), count)
        destinations = column + (column >= origin_codes)
        # First appearance orders the destination labels names[1:] + names[:1]
        # (row 0 lists names[1:], row 1 then adds names[0]).
        destination_codes = (destinations - 1) % count
        labels = np.array(names, dtype=object)
        self = super().__new__(
            cls, _checked_pairs(labels[origin_codes].tolist(), labels[destinations].tolist())
        )
        self._adopt(
            names,
            names[1:] + names[:1],
            origin_codes,
            destination_codes,
            origin_codes * count + destination_codes,
        )
        return self

    def _adopt(
        self,
        origins: tuple[str, ...],
        destinations: tuple[str, ...],
        origin_codes: np.ndarray,
        destination_codes: np.ndarray,
        cells: np.ndarray,
    ) -> None:
        for array in (origin_codes, destination_codes, cells):
            array.setflags(write=False)
        self._codes = (origins, destinations, origin_codes, destination_codes)
        self._cells = cells
        self._positions = None
        self._name_bytes = None

    @classmethod
    def of(cls, pairs: Iterable[NodePair]) -> "PairIndex":
        """Return ``pairs`` itself if it is an index, else a new index over it."""
        return pairs if isinstance(pairs, PairIndex) else cls(pairs)

    def codes(self) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray, np.ndarray]:
        """``(origins, destinations, origin_codes, destination_codes)``.

        ``origins`` / ``destinations`` list the labels in first-appearance
        pair order; ``origin_codes[p]`` / ``destination_codes[p]`` are the
        positions of pair ``p``'s endpoints in them (read-only integer
        arrays).
        """
        return self._codes

    def cells(self) -> np.ndarray:
        """Each pair's cell in the flat ``origins x destinations`` table.

        ``cells[p] = origin_codes[p] * len(destinations) + destination_codes[p]``
        (a read-only integer array), so a pair vector scatters into a
        row-major table with ``table.reshape(-1)[cells] = vector``.
        """
        return self._cells

    def edge_sums(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-origin and per-destination sums of pair values on the last axis.

        ``values`` is one value per pair, or a ``(K, P)`` stack of such
        rows; the sums follow the label order of :meth:`codes`, and each
        adds its pairs' values in pair order, exactly like a loop would.
        One sparse product of the pairs' endpoint incidence with the value
        columns gives both, returned as C-ordered arrays (a later reduction
        over a row adds in the same order as over a loop-built array).
        """
        origins, destinations, origin_codes, destination_codes = self._codes
        columns = np.arange(len(self))
        incidence = scipy.sparse.csr_matrix(
            (
                np.ones(2 * len(self)),
                (
                    np.concatenate([origin_codes, len(origins) + destination_codes]),
                    np.concatenate([columns, columns]),
                ),
            ),
            shape=(len(origins) + len(destinations), len(self)),
        )
        sums = np.asarray(incidence @ np.asarray(values, dtype=float).T).T
        return (
            np.ascontiguousarray(sums[..., : len(origins)]),
            np.ascontiguousarray(sums[..., len(origins) :]),
        )

    def name_bytes(self) -> bytes:
        """The pairs' names (``str(pair)``) joined by ``"\\x00"``, UTF-8 encoded.

        Built on first use and cached, so every routing matrix on this index
        (a :func:`~repro.routing.routing_matrix.reroute` keeps its base's)
        hashes the names without rebuilding them.
        """
        if self._name_bytes is None:
            self._name_bytes = "\x00".join(map(str, self)).encode()
        return self._name_bytes

    def position(self, pair: NodePair) -> int:
        """Vector position of ``pair``, raising ``KeyError`` if it is absent."""
        return self.positions()[pair]

    def positions(self) -> dict[NodePair, int]:
        """The cached ``pair -> position`` mapping (built on first use; do not mutate)."""
        if self._positions is None:
            self._positions = {pair: idx for idx, pair in enumerate(self)}
        return self._positions

    def __reduce__(self) -> tuple[type, tuple[tuple[NodePair, ...]]]:
        return (PairIndex, (tuple(self),))


def _checked_pairs(origins: list[str], destinations: list[str]) -> list[NodePair]:
    """Pairs of endpoints the caller has checked (non-empty and distinct).

    Each pair's two fields are set as the frozen dataclass's ``__init__``
    sets them, without the ``__post_init__`` checks the caller has already
    made for every pair at once.  A pair gets its fields before the next
    pair is created: CPython sizes a new instance's attribute storage by
    the attributes its class has seen set so far, and instances created
    before any was set would each fall back to a dict of their own.
    """
    new, set_field = object.__new__, object.__setattr__
    pairs = []
    for origin, destination in zip(origins, destinations):
        pair = new(NodePair)
        set_field(pair, "origin", origin)
        set_field(pair, "destination", destination)
        pairs.append(pair)
    return pairs
