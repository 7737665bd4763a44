"""The :class:`Network` container tying nodes and links together.

A :class:`Network` is the central topology object consumed by the routing
substrate (:mod:`repro.routing`), the traffic generators
(:mod:`repro.traffic`) and the estimation methods.  It maintains

* an ordered collection of :class:`~repro.topology.elements.Node` objects,
* an ordered collection of directed
  :class:`~repro.topology.elements.Link` objects,
* the canonical enumeration of origin-destination
  :class:`~repro.topology.elements.NodePair` objects used to vectorise the
  traffic matrix (the paper's ``p = 1..P`` indexing).

Ordering matters: the routing matrix ``R`` (links x pairs) and the demand
vector ``s`` are both indexed positionally, so the network fixes a single
canonical order for links and pairs that every other module relies on.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np
import scipy.sparse
from scipy.sparse import csgraph

from repro.errors import TopologyError
from repro.topology.elements import Link, Node, NodePair, PairIndex

__all__ = ["Network"]


class Network:
    """A directed backbone network of PoPs/routers and links.

    Parameters
    ----------
    name:
        Human-readable name, e.g. ``"europe"`` or ``"america"``.
    nodes:
        Iterable of nodes.  Order is preserved and defines node indices.
    links:
        Iterable of directed links.  Order is preserved and defines the row
        order of routing matrices built for this network.
    """

    def __init__(
        self,
        name: str,
        nodes: Iterable[Node] = (),
        links: Iterable[Link] = (),
    ) -> None:
        if not name:
            raise TopologyError("network name must be a non-empty string")
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._links: dict[str, Link] = {}
        self._link_index: dict[str, int] = {}
        self._adjacency: dict[str, list[Link]] = {}
        self._pairs: Optional[PairIndex] = None
        for node in nodes:
            self.add_node(node)
        for link in links:
            self.add_link(link)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add a node, rejecting duplicates."""
        if node.name in self._nodes:
            raise TopologyError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node
        self._adjacency.setdefault(node.name, [])
        self._pairs = None

    def add_link(self, link: Link) -> None:
        """Add a directed link whose endpoints must already exist."""
        if link.source not in self._nodes:
            raise TopologyError(f"link {link.name!r} references unknown node {link.source!r}")
        if link.target not in self._nodes:
            raise TopologyError(f"link {link.name!r} references unknown node {link.target!r}")
        if link.name in self._links:
            raise TopologyError(f"duplicate link {link.name!r}")
        self._link_index[link.name] = len(self._links)
        self._links[link.name] = link
        self._adjacency[link.source].append(link)

    def add_bidirectional_link(self, link: Link) -> None:
        """Add ``link`` and its reverse in one call (common for backbones)."""
        self.add_link(link)
        self.add_link(link.reversed())

    # ------------------------------------------------------------------
    # node access
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes in insertion order."""
        return tuple(self._nodes.values())

    @property
    def node_names(self) -> tuple[str, ...]:
        """Names of all nodes in insertion order."""
        return tuple(self._nodes.keys())

    def node(self, name: str) -> Node:
        """Return the node called ``name``, raising ``TopologyError`` if absent."""
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise TopologyError(f"unknown node {name!r} in network {self.name!r}") from exc

    def has_node(self, name: str) -> bool:
        """Return whether a node called ``name`` exists."""
        return name in self._nodes

    @property
    def edge_nodes(self) -> tuple[Node, ...]:
        """Nodes that can originate or terminate demands (access or peering)."""
        return tuple(node for node in self._nodes.values() if node.is_edge())

    # ------------------------------------------------------------------
    # link access
    # ------------------------------------------------------------------
    @property
    def links(self) -> tuple[Link, ...]:
        """All directed links in insertion order."""
        return tuple(self._links.values())

    @property
    def link_names(self) -> tuple[str, ...]:
        """Names of all links in insertion order."""
        return tuple(self._links.keys())

    def link(self, name: str) -> Link:
        """Return the link called ``name``, raising ``TopologyError`` if absent."""
        try:
            return self._links[name]
        except KeyError as exc:
            raise TopologyError(f"unknown link {name!r} in network {self.name!r}") from exc

    def link_index(self, name: str) -> int:
        """Return the canonical row index of the link called ``name``."""
        try:
            return self._link_index[name]
        except KeyError as exc:
            raise TopologyError(f"unknown link {name!r} in network {self.name!r}") from exc

    def outgoing_links(self, node_name: str) -> tuple[Link, ...]:
        """Directed links leaving ``node_name``."""
        self.node(node_name)
        return tuple(self._adjacency[node_name])

    def incoming_links(self, node_name: str) -> tuple[Link, ...]:
        """Directed links entering ``node_name``."""
        self.node(node_name)
        return tuple(link for link in self._links.values() if link.target == node_name)

    # ------------------------------------------------------------------
    # sizes and pair enumeration
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``N``."""
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        """Number of directed links ``L``."""
        return len(self._links)

    @property
    def num_pairs(self) -> int:
        """Number of origin-destination pairs between edge nodes."""
        n_edge = len(self.edge_nodes)
        return n_edge * (n_edge - 1)

    def node_pairs(self) -> PairIndex:
        """Canonical enumeration of origin-destination pairs.

        Pairs are ordered by origin (node insertion order) and then by
        destination, skipping the diagonal.  Only edge nodes (access or
        peering) appear; transit nodes never source or sink demands.

        The index is a :meth:`PairIndex.mesh`, built once and cached
        (:meth:`add_node` resets it), so every routing matrix, traffic
        matrix and estimation problem built from this network shares one
        :class:`PairIndex`.
        """
        if self._pairs is None:
            self._pairs = PairIndex.mesh([node.name for node in self.edge_nodes])
        return self._pairs

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants, raising ``TopologyError`` on failure.

        The network must contain at least two edge nodes (otherwise no
        demands exist) and must be strongly connected over its edge nodes so
        that every demand is routable.
        """
        edge_names = [node.name for node in self.edge_nodes]
        if len(edge_names) < 2:
            raise TopologyError(
                f"network {self.name!r} needs at least two edge nodes, "
                f"got {len(edge_names)}"
            )
        # The pair enumeration contains both directions of every edge-node
        # pair, so routability of all pairs is exactly "all edge nodes lie
        # in one strongly connected component": one csgraph SCC sweep over
        # the node-index adjacency.
        index = {name: position for position, name in enumerate(self._nodes)}
        tail = [index[link.source] for link in self._links.values()]
        head = [index[link.target] for link in self._links.values()]
        adjacency = scipy.sparse.csr_matrix(
            (np.ones(len(tail)), (tail, head)), shape=(len(index), len(index))
        )
        _, component = csgraph.connected_components(
            adjacency, directed=True, connection="strong"
        )
        edge_component = component[[index[name] for name in edge_names]]
        split = np.flatnonzero(edge_component != edge_component[0])
        if split.size:
            # Name the first unroutable demand from the first edge node: the
            # one that leaves it, unless the other end is reachable from it.
            anchor, other = edge_names[0], edge_names[split[0]]
            reachable = csgraph.breadth_first_order(
                adjacency, index[anchor], directed=True, return_predecessors=False
            )
            pair = NodePair(anchor, other)
            if index[other] in reachable:
                pair = NodePair(other, anchor)
            raise TopologyError(f"network {self.name!r} has no path for demand {pair}")

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes or name in self._links

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(name={self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links}, pairs={self.num_pairs})"
        )
