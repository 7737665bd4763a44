"""Shortest-path (IGP) routing over a :class:`~repro.topology.network.Network`.

The paper assumes single-path routing for each demand (its routing matrix is
0/1) but notes that fractional routing matrices cover multi-path cases.  This
module provides both:

* :class:`ShortestPathRouter` — Dijkstra routing on link metrics, producing a
  single path per origin-destination pair with deterministic tie-breaking;
* equal-cost multi-path (ECMP) enumeration via
  :meth:`ShortestPathRouter.all_shortest_paths`, used by the fractional
  routing-matrix builder.

Paths are represented as :class:`Path` objects carrying both the node
sequence and the link sequence.  Batched routing also comes as a
:class:`RouteTable` of flat link rows, which the routing-matrix builder
turns into CSR without per-pair objects.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse import csgraph

from repro import telemetry
from repro.errors import RoutingError
from repro.topology.elements import Link, NodePair, PairIndex
from repro.topology.network import Network

__all__ = [
    "Path",
    "RouteTable",
    "ShortestPathRouter",
    "constrained_dijkstra",
    "single_source_shortest_paths",
]

#: Cost tolerance shared with :func:`_dijkstra_sweep`: paths within this
#: of the optimum count as equal cost for tie-breaking purposes.
_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Path:
    """A routed path through the network.

    Attributes
    ----------
    pair:
        The origin-destination pair this path serves.
    nodes:
        Node names from origin to destination, inclusive.
    links:
        The directed links traversed, in order.
    cost:
        Total metric of the path.
    """

    pair: NodePair
    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    cost: float

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise RoutingError(f"path for {self.pair} must visit at least two nodes")
        if len(self.links) != len(self.nodes) - 1:
            raise RoutingError(
                f"path for {self.pair} has {len(self.links)} links "
                f"but {len(self.nodes)} nodes"
            )
        if self.nodes[0] != self.pair.origin or self.nodes[-1] != self.pair.destination:
            raise RoutingError(f"path endpoints do not match pair {self.pair}")

    def link_names(self) -> tuple[str, ...]:
        """Names of the traversed links, in order."""
        return tuple(link.name for link in self.links)

    def __iter__(self) -> Iterator[Link]:
        return iter(self.links)

    def __len__(self) -> int:
        return len(self.links)


def _dijkstra_sweep(
    network: Network,
    origin: str,
    link_cost: Callable[[Link], float],
    usable: Optional[Callable[[Link], bool]],
    target: Optional[str],
) -> tuple[dict[str, float], dict[str, tuple[tuple[str, ...], tuple[Link, ...]]]]:
    """The one Dijkstra relaxation of the routing substrate.

    Deterministic tie-breaking — the lexicographically smallest node
    sequence among equal-cost paths, with heap order matching — lives only
    here, so it cannot drift between the per-pair and the single-source
    entry points.  ``target`` enables the classic early exit; it cannot
    change any recorded route because link costs are strictly positive
    (``Link`` validates this), so once a node is popped no later
    relaxation can reach it at an equal-or-better cost.
    """
    best_cost: dict[str, float] = {origin: 0.0}
    best_route: dict[str, tuple[tuple[str, ...], tuple[Link, ...]]] = {origin: ((origin,), ())}
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (origin,), origin)]
    visited: set[str] = set()
    while heap:
        cost, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == target:
            break
        for link in network.outgoing_links(node):
            if usable is not None and not usable(link):
                continue
            next_cost = cost + link_cost(link)
            nodes, links = best_route[node]
            candidate = (nodes + (link.target,), links + (link,))
            current = best_cost.get(link.target)
            if (
                current is None
                or next_cost < current - 1e-12
                or (
                    abs(next_cost - current) <= 1e-12
                    and candidate[0] < best_route[link.target][0]
                )
            ):
                best_cost[link.target] = next_cost
                best_route[link.target] = candidate
                heapq.heappush(heap, (next_cost, candidate[0], link.target))
    return best_cost, best_route


def constrained_dijkstra(
    network: Network,
    pair: NodePair,
    link_cost: Callable[[Link], float],
    usable: Optional[Callable[[Link], bool]] = None,
) -> Optional[Path]:
    """Deterministic Dijkstra with an optional link filter.

    This is the per-pair shortest-path implementation of the routing
    substrate: :meth:`ShortestPathRouter.shortest_path` (IGP) and
    :class:`~repro.routing.cspf.CSPFRouter` (bandwidth admission via
    ``usable``) call it, and :func:`single_source_shortest_paths` runs the
    same sweep without the early exit for the python fallback of the
    batched kernel (failed links excluded via ``usable``).  Sharing one
    implementation (:func:`_dijkstra_sweep`) keeps the tie-breaking — the
    lexicographically smallest node sequence among equal-cost paths — from
    drifting between callers.

    Returns ``None`` when the destination is unreachable over the usable
    links (callers decide whether that is an error, a fallback, or an
    infeasible planning record).
    """
    best_cost, best_route = _dijkstra_sweep(
        network, pair.origin, link_cost, usable, pair.destination
    )
    if pair.destination not in best_route:
        return None
    nodes, links = best_route[pair.destination]
    if len(nodes) < 2:
        return None
    return Path(pair=pair, nodes=nodes, links=links, cost=best_cost[pair.destination])


def single_source_shortest_paths(
    network: Network,
    origin: str,
    link_cost: Callable[[Link], float],
    usable: Optional[Callable[[Link], bool]] = None,
) -> dict[str, tuple[tuple[str, ...], tuple[Link, ...], float]]:
    """One Dijkstra serving every destination reachable from ``origin``.

    Returns ``{destination: (nodes, links, cost)}`` for every node other
    than ``origin`` that the usable links reach.  This runs the shared
    :func:`_dijkstra_sweep` with no early-exit target, so the route
    recorded for each destination is exactly what
    :func:`constrained_dijkstra` would return for it.  It serves the
    python fallback of the batched kernel behind
    :meth:`ShortestPathRouter.route_table` and
    :func:`~repro.routing.routing_matrix.reroute`.
    """
    best_cost, best_route = _dijkstra_sweep(network, origin, link_cost, usable, None)
    return {
        node: (nodes, links, best_cost[node])
        for node, (nodes, links) in best_route.items()
        if node != origin
    }


@dataclass(frozen=True)
class RouteTable:
    """The single paths of a pair sequence as flat link rows.

    Pair ``p`` of the routed sequence crosses the links whose canonical row
    indices (``network.links`` order) are ``links[offsets[p]:offsets[p + 1]]``,
    in path order, at total cost ``costs[p]``.  This is the column
    structure of the routing matrix, so the matrix builder needs no
    per-pair objects.  An unreachable pair crosses no links at cost ``inf``.
    """

    links: np.ndarray
    offsets: np.ndarray
    costs: np.ndarray

    @classmethod
    def from_links(
        cls, network: Network, routes: Iterable[tuple[Sequence[Link], float]]
    ) -> "RouteTable":
        """The table of ``(links, cost)`` routes given pair by pair."""
        row_of = {name: row for row, name in enumerate(network.link_names)}
        rows: list[int] = []
        lengths: list[int] = []
        costs: list[float] = []
        for links, cost in routes:
            rows.extend(row_of[link.name] for link in links)
            lengths.append(len(links))
            costs.append(cost)
        offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        return cls(np.array(rows, dtype=np.intp), offsets, np.array(costs, dtype=np.float64))


class _Unreconciled(Exception):
    """csgraph distances that the next-hop walk cannot follow."""


def _load_csgraph():
    """The :mod:`scipy.sparse.csgraph` the kernel calls (monkeypatchable).

    Kept as a module-level seam so tests can force the python fallback by
    patching it to raise, and so a scipy build missing the feature degrades
    gracefully instead of crashing ``route_table``.  The module itself is
    imported with this one, so the first routing call does not pay it.
    """
    if not hasattr(csgraph, "dijkstra"):
        raise ImportError("scipy.sparse.csgraph has no dijkstra")
    return csgraph


def _next_hop_routes(
    network: Network,
    pairs: Sequence[NodePair],
    link_cost: Callable[[Link], float],
    failed: Optional[np.ndarray] = None,
) -> tuple[RouteTable, np.ndarray]:
    """Route every pair at once from one table of next hops per destination.

    One csgraph Dijkstra over the reversed min-cost adjacency, from the
    requested destinations, gives ``dist[v, x]``: the cost from ``x`` to
    ``v``.  A link ``x -> y`` of cost ``w`` starts a shortest ``x -> v``
    path iff ``|w + dist[v, y] - dist[v, x]| <= _TIE_TOLERANCE``.  The next
    hop of ``(x, v)`` is the admissible link whose head has the smallest
    node *name* (not index), the first in ``outgoing_links(x)`` order among
    parallel links.  This is exactly :func:`_dijkstra_sweep`'s route: the
    lexicographically smallest node sequence among equal-cost paths is
    found greedily, since a shortest prefix ending at ``x`` extends by any
    shortest ``x -> v`` path.  Each pair's cost is summed from the origin
    in path order, like the sweep's running sums, so it is bit-identical.

    ``failed`` (a boolean mask over ``network.links``) masks links out of
    the graph, so the routes are those of the network without them.
    Returns the table and a boolean mask of the pairs that have a path;
    an unreachable pair gets an empty route.

    Raises ``TopologyError`` for an unknown node, ``RoutingError`` for a
    non-positive cost, and ``_Unreconciled`` (the caller falls back to the
    python sweep) when a finite distance has no admissible next hop or a
    walk is unfinished after ``N`` rounds.
    """
    names = network.node_names
    node_index = {name: position for position, name in enumerate(names)}
    origin_labels, destination_labels, origin_codes, destination_codes = (
        PairIndex.of(pairs).codes()
    )

    def label_nodes(labels: Sequence[str]) -> np.ndarray:
        for label in labels:
            network.node(label)  # an unknown node raises TopologyError
        return np.array([node_index[label] for label in labels], dtype=np.intp)

    origins = label_nodes(origin_labels)[origin_codes]
    # One distance row per distinct destination: the pair index's labels.
    targets, target_row = label_nodes(destination_labels), destination_codes
    destinations = targets[target_row]

    links = network.links
    num_nodes, num_links = len(names), len(links)
    tail = np.fromiter((node_index[link.source] for link in links), dtype=np.intp, count=num_links)
    head = np.fromiter((node_index[link.target] for link in links), dtype=np.intp, count=num_links)
    weight = np.fromiter((link_cost(link) for link in links), dtype=np.float64, count=num_links)
    positive = weight > 0.0
    if not positive.all():
        link = links[int(np.argmin(positive))]
        raise RoutingError(
            f"link {link.name!r} has non-positive cost {link_cost(link)!r}; "
            "shortest-path routing requires strictly positive costs"
        )
    dijkstra = _load_csgraph().dijkstra

    # The reversed graph keeps the cheapest of parallel live links, so its
    # Dijkstra rows are the costs *to* each destination.
    live = np.arange(num_links) if failed is None else np.flatnonzero(~failed)
    key = tail[live] * num_nodes + head[live]
    by_key = np.lexsort((weight[live], key))
    cheapest = live[by_key[np.diff(key[by_key], prepend=-1) != 0]]
    reversed_adjacency = scipy.sparse.csr_matrix(
        (weight[cheapest], (head[cheapest], tail[cheapest])), shape=(num_nodes, num_nodes)
    )
    dist = np.atleast_2d(dijkstra(reversed_adjacency, directed=True, indices=targets))
    reachable = np.isfinite(dist[target_row, origins])

    # Live links sorted by tail, then by head name; lexsort is stable, so
    # parallel links keep their outgoing_links order.
    name_rank = np.empty(num_nodes, dtype=np.intp)
    name_rank[sorted(range(num_nodes), key=names.__getitem__)] = np.arange(num_nodes)
    order = live[np.lexsort((name_rank[head[live]], tail[live]))]
    order_tail = tail[order]
    with np.errstate(invalid="ignore"):  # inf - inf where neither end reaches v
        slack = weight[order] + dist[:, head[order]] - dist[:, order_tail]
    admissible_at = np.where(np.abs(slack) <= _TIE_TOLERANCE, np.arange(order.size), order.size)
    starts = np.flatnonzero(np.diff(order_tail, prepend=-1))
    first_admissible = np.minimum.reduceat(admissible_at, starts, axis=1)
    next_link = np.full((targets.size, num_nodes), -1, dtype=np.intp)
    next_link[:, order_tail[starts]] = np.where(
        first_admissible < order.size, order[np.minimum(first_admissible, order.size - 1)], -1
    )
    table = _walk(next_link, target_row, origins, destinations, head, weight, reachable)
    return table, reachable


def _walk(
    next_link: np.ndarray,
    target_row: np.ndarray,
    origins: np.ndarray,
    destinations: np.ndarray,
    head: np.ndarray,
    weight: np.ndarray,
    reachable: np.ndarray,
) -> RouteTable:
    """Advance every reachable pair one hop per round along ``next_link[target, node]``."""
    num_pairs = origins.size
    at = origins.copy()
    costs = np.where(reachable, 0.0, np.inf)
    walking = np.flatnonzero(reachable)
    rounds: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(next_link.shape[1]):  # a shortest path has fewer than N hops
        if not walking.size:
            break
        hop = next_link[target_row[walking], at[walking]]
        if (hop < 0).any():
            raise _Unreconciled("a finite csgraph distance has no admissible next hop")
        rounds.append((walking, hop))
        costs[walking] += weight[hop]
        at[walking] = head[hop]
        walking = walking[at[walking] != destinations[walking]]
    if walking.size:
        raise _Unreconciled(f"{walking.size} walks are unfinished after N rounds")

    lengths = np.zeros(num_pairs, dtype=np.intp)
    for stepped, _ in rounds:
        lengths[stepped] += 1
    offsets = np.zeros(num_pairs + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    links = np.empty(offsets[-1], dtype=np.intp)
    for position, (stepped, hop) in enumerate(rounds):
        links[offsets[stepped] + position] = hop
    return RouteTable(links=links, offsets=offsets, costs=costs)


def _sweep_routes(
    network: Network,
    pairs: Sequence[NodePair],
    link_cost: Callable[[Link], float],
    failed: Optional[np.ndarray] = None,
) -> tuple[RouteTable, np.ndarray]:
    """The same table and mask from one python :func:`_dijkstra_sweep` per origin."""
    usable: Optional[Callable[[Link], bool]] = None
    if failed is not None:
        dead = {link.name for link, gone in zip(network.links, failed.tolist()) if gone}

        def usable(link: Link) -> bool:
            return link.name not in dead

    trees: dict[str, dict[str, tuple[tuple[str, ...], tuple[Link, ...], float]]] = {}
    routes: list[tuple[tuple[Link, ...], float]] = []
    reachable = np.ones(len(pairs), dtype=bool)
    for position, pair in enumerate(pairs):
        if pair.origin not in trees:
            trees[pair.origin] = single_source_shortest_paths(
                network, pair.origin, link_cost, usable
            )
        route = trees[pair.origin].get(pair.destination)
        if route is None:
            reachable[position] = False
            routes.append(((), np.inf))
        else:
            routes.append(route[1:])
    return RouteTable.from_links(network, routes), reachable


def _route_pairs(
    network: Network,
    pairs: Sequence[NodePair],
    link_cost: Callable[[Link], float],
    failed: Optional[np.ndarray] = None,
) -> tuple[RouteTable, np.ndarray]:
    """Route ``pairs`` (``failed`` links masked out) with the next-hop kernel.

    Returns the table and the mask of pairs that have a path, as
    :func:`_next_hop_routes` does.  A scipy missing the feature, or
    distances the walk cannot follow, fall back to :func:`_sweep_routes`
    with a ``RuntimeWarning``.
    """
    try:
        return _next_hop_routes(network, pairs, link_cost, failed)
    except (ImportError, _Unreconciled) as exc:
        warnings.warn(
            f"csgraph routing unavailable ({exc}); "
            "falling back to the python Dijkstra sweep",
            RuntimeWarning,
            stacklevel=3,
        )
    return _sweep_routes(network, pairs, link_cost, failed)


def _no_path(network: Network, pair: NodePair) -> RoutingError:
    return RoutingError(
        f"no path from {pair.origin!r} to {pair.destination!r} in network {network.name!r}"
    )


class ShortestPathRouter:
    """Dijkstra single-path and ECMP routing on link metrics.

    Parameters
    ----------
    network:
        The topology to route over.
    metric_attribute:
        Which link attribute to minimise; ``"metric"`` (default) gives IGP
        routing, ``"hops"`` gives minimum-hop routing.

    Notes
    -----
    Tie-breaking is deterministic: when two paths have equal cost the one
    whose node sequence is lexicographically smaller wins.  Deterministic
    routing matters because the routing matrix must be reproducible for the
    estimation benchmarks.  Batched routing (:meth:`route_table`) runs a
    csgraph kernel with the same tie-breaking; it falls back to the python
    sweep, with a warning, if scipy lacks the feature or its distances
    cannot be followed.
    """

    def __init__(self, network: Network, metric_attribute: str = "metric") -> None:
        if metric_attribute not in ("metric", "hops"):
            raise RoutingError(
                f"unsupported metric attribute {metric_attribute!r}; "
                "expected 'metric' or 'hops'"
            )
        self.network = network
        self.metric_attribute = metric_attribute
        self._distances: Optional[dict[str, dict[str, float]]] = None

    # ------------------------------------------------------------------
    def _link_cost(self, link: Link) -> float:
        return 1.0 if self.metric_attribute == "hops" else link.metric

    def shortest_path(self, pair: NodePair) -> Path:
        """Return the single shortest path for ``pair``.

        Raises
        ------
        RoutingError
            If the destination is unreachable from the origin.
        """
        self.network.node(pair.origin)
        self.network.node(pair.destination)
        path = constrained_dijkstra(self.network, pair, self._link_cost)
        if path is None:
            raise _no_path(self.network, pair)
        return path

    def all_shortest_paths(self, pair: NodePair, tolerance: float = 1e-9) -> tuple[Path, ...]:
        """Return every equal-cost shortest path for ``pair`` (ECMP set).

        A depth-first search over simple paths from the origin, pruned by
        the router's table of shortest distances: a link is skipped when
        the cost so far, its cost and the shortest distance from its head
        to the destination exceed the optimum by more than ``tolerance``.
        That sum is a lower bound on every path through the link, so the
        pruning drops no equal-cost path; it keeps the search to the links
        that start one.

        Parameters
        ----------
        pair:
            Origin-destination pair.
        tolerance:
            Paths whose cost is within ``tolerance`` of the optimum are
            considered equal cost.
        """
        optimum = self.shortest_path(pair).cost
        to_destination = {
            node: costs.get(pair.destination, np.inf)
            for node, costs in self._distance_table().items()
        }
        bound = optimum + tolerance
        paths: list[Path] = []

        def extend(node: str, nodes: tuple[str, ...], links: tuple[Link, ...], cost: float) -> None:
            if node == pair.destination:
                paths.append(Path(pair=pair, nodes=nodes, links=links, cost=cost))
                return
            for link in self.network.outgoing_links(node):
                if link.target in nodes:
                    continue
                next_cost = cost + self._link_cost(link)
                if next_cost + to_destination[link.target] > bound:
                    continue
                extend(link.target, nodes + (link.target,), links + (link,), next_cost)

        extend(pair.origin, (pair.origin,), (), 0.0)
        if not paths:
            raise RoutingError(f"no path found for pair {pair}")
        paths.sort(key=lambda p: p.nodes)
        return tuple(paths)

    def _distance_table(self) -> dict[str, dict[str, float]]:
        """Shortest distances ``{source: {node: cost}}``, swept once per router.

        One :func:`_dijkstra_sweep` per source over the network as it is at
        the first call; unreachable nodes are absent.
        """
        if self._distances is None:
            self._distances = {
                source: _dijkstra_sweep(self.network, source, self._link_cost, None, None)[0]
                for source in self.network.node_names
            }
        return self._distances

    def route_table(self, pairs: Optional[Sequence[NodePair]] = None) -> RouteTable:
        """Route every pair (default: all pairs of the network) into flat link rows.

        One csgraph Dijkstra serves every destination and one vectorised
        walk advances all pairs a hop per round (:func:`_next_hop_routes`),
        with no per-pair Python.  Entry ``p`` of the table is the route
        :meth:`shortest_path` gives ``pairs[p]``.  Raises ``TopologyError``
        for an unknown node and ``RoutingError`` for an unreachable pair.
        """
        if pairs is None:
            pairs = self.network.node_pairs()
        with telemetry.span("routing.route_all", pairs=len(pairs)):
            table, reachable = _route_pairs(self.network, pairs, self._link_cost)
            if not reachable.all():
                raise _no_path(self.network, pairs[int(np.argmin(reachable))])
            return table

    def route_all(self, pairs: Optional[Sequence[NodePair]] = None) -> dict[NodePair, Path]:
        """Route every pair (default: all pairs of the network) as :class:`Path` objects.

        The paths are read off :meth:`route_table`, so node sequences, link
        sequences and costs equal :meth:`shortest_path` per pair.  Returns a
        mapping ordered like ``pairs`` so that downstream consumers can
        build positional structures from it.
        """
        if pairs is None:
            pairs = self.network.node_pairs()
        table = self.route_table(pairs)
        links = self.network.links
        hops = [links[row] for row in table.links.tolist()]
        offsets = table.offsets.tolist()
        routed: dict[NodePair, Path] = {}
        for position, (pair, cost) in enumerate(zip(pairs, table.costs.tolist())):
            path_links = tuple(hops[offsets[position] : offsets[position + 1]])
            nodes = (pair.origin,) + tuple(link.target for link in path_links)
            routed[pair] = Path(pair=pair, nodes=nodes, links=path_links, cost=cost)
        return routed
