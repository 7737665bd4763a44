"""Incremental re-routing of an LSP mesh after element failures.

Failure what-if analysis asks the same question for hundreds of cases: "if
these links or nodes go down, where does every demand flow?".  Re-signalling
the full mesh from scratch for each case repeats work — most demands never
touched the failed element and keep their path (removing links or nodes can
only *remove* candidate paths, so a surviving shortest path stays shortest,
and the deterministic lexicographic tie-breaking keeps the same winner).

:class:`IncrementalRerouter` exploits that: it routes the mesh once over the
base topology, builds inverted indexes from links and nodes to the pairs
whose paths traverse them, and for each failure case re-runs Dijkstra only
for the affected pairs — over the *base* network with the failed elements
excluded, so no per-case topology object is ever constructed.  The
post-failure routing matrix is likewise rebuilt incrementally: the base
coordinate arrays are kept and only the affected columns are replaced.

With per-LSP ``bandwidths`` the rerouter mimics RSVP-TE repair: the
reservations of the torn-down LSPs are released and the affected LSPs are
re-signalled in descending bandwidth order against the surviving
reservation state (falling back to the unconstrained shortest path exactly
like non-strict :class:`~repro.routing.cspf.CSPFRouter`).  In the default
zero-bandwidth (pure IGP) mode the incremental result is *identical* to a
from-scratch re-signal of the surviving topology; with non-zero bandwidths
the signalling order of the unaffected LSPs differs from a global
re-optimisation, as it would on a real network where established tunnels
stay put.

Demands whose endpoints fail, or that a partition leaves with no surviving
path, are reported as *infeasible* (``None`` paths / all-zero routing
columns) rather than raising, so planning layers can produce structured
"this failure disconnects the network" records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np
import scipy.sparse

from repro.errors import RoutingError
from repro.routing.cspf import CSPFRouter
from repro.routing.lsp import LSPMesh
from repro.routing.routing_matrix import RoutingMatrix
from repro.routing.shortest_path import Path, ShortestPathRouter, constrained_dijkstra
from repro.topology.elements import Link, NodePair
from repro.topology.network import Network

__all__ = ["RerouteResult", "IncrementalRerouter"]


@dataclass(frozen=True)
class RerouteResult:
    """Outcome of re-routing the mesh around a set of failed elements.

    Attributes
    ----------
    failed_links, failed_nodes:
        The failed elements (links incident to failed nodes are implied).
    paths:
        Post-failure path for *every* pair in canonical order; ``None``
        marks a pair the failure disconnects.
    rerouted:
        Pairs whose base path traversed a failed element (in canonical
        order); all other pairs kept their base path.
    infeasible:
        The subset of ``rerouted`` left without any surviving path.
    """

    failed_links: tuple[str, ...]
    failed_nodes: tuple[str, ...]
    paths: dict[NodePair, Optional[Path]]
    rerouted: tuple[NodePair, ...]
    infeasible: tuple[NodePair, ...]

    @property
    def is_feasible(self) -> bool:
        """Whether every demand still has a path."""
        return not self.infeasible


class IncrementalRerouter:
    """Re-route only the demands a failure actually touches.

    Parameters
    ----------
    network:
        The base topology.
    bandwidths:
        Optional per-pair LSP bandwidth values.  When given, the base mesh
        is signalled with CSPF (largest LSPs first) and failure repair
        honours the surviving reservations; when omitted (default) routing
        is pure IGP shortest path and incremental re-routing is provably
        identical to a from-scratch rebuild.
    paths:
        Pre-computed base paths (e.g. from an existing routing matrix
        build).  Must cover every canonical pair; overrides the internal
        base routing.
    """

    def __init__(
        self,
        network: Network,
        bandwidths: Optional[Mapping[NodePair, float]] = None,
        paths: Optional[Mapping[NodePair, Path]] = None,
    ) -> None:
        self.network = network
        self.pairs = network.node_pairs()
        self.bandwidths = {pair: float(value) for pair, value in (bandwidths or {}).items()}
        unknown = set(self.bandwidths) - set(self.pairs)
        if unknown:
            raise RoutingError(
                f"bandwidths reference unknown pairs: {sorted(map(str, unknown))}"
            )
        if paths is not None:
            missing = [pair for pair in self.pairs if pair not in paths]
            if missing:
                raise RoutingError(
                    f"base paths missing pairs: {[str(p) for p in missing[:5]]}"
                )
            self.base_paths: dict[NodePair, Path] = {pair: paths[pair] for pair in self.pairs}
        elif self.bandwidths:
            router = CSPFRouter(network)
            mesh = LSPMesh(network, bandwidths=self.bandwidths)
            self.base_paths = dict(router.signal_mesh(mesh, order="bandwidth"))
        else:
            self.base_paths = dict(ShortestPathRouter(network).route_all())
        # Which LSPs actually hold a reservation: non-strict CSPF routes an
        # unplaceable LSP along the unconstrained shortest path *without*
        # reserving bandwidth, so the repair path must not release for it.
        self._base_reserved, self._reservation_holders = self._replay_reservations(
            self.base_paths
        )

        # Inverted indexes: which pairs does each link / node carry?
        self._pairs_by_link: dict[str, list[NodePair]] = {}
        self._pairs_by_node: dict[str, list[NodePair]] = {}
        for pair in self.pairs:
            path = self.base_paths[pair]
            for link in path.links:
                self._pairs_by_link.setdefault(link.name, []).append(pair)
            for node in path.nodes:
                self._pairs_by_node.setdefault(node, []).append(pair)

        # Base coordinate arrays for incremental routing-matrix rebuilds.
        rows: list[int] = []
        cols: list[int] = []
        for col, pair in enumerate(self.pairs):
            for link in self.base_paths[pair].links:
                rows.append(network.link_index(link.name))
                cols.append(col)
        self._base_rows = np.asarray(rows, dtype=np.int64)
        self._base_cols = np.asarray(cols, dtype=np.int64)
        self._base_matrix: Optional[RoutingMatrix] = None

    # ------------------------------------------------------------------
    # base routing
    # ------------------------------------------------------------------
    @property
    def base_matrix(self) -> RoutingMatrix:
        """Routing matrix of the intact topology (built once, cached)."""
        if self._base_matrix is None:
            coo = scipy.sparse.coo_matrix(
                (np.ones(len(self._base_rows)), (self._base_rows, self._base_cols)),
                shape=(self.network.num_links, len(self.pairs)),
            )
            self._base_matrix = RoutingMatrix(
                coo, self.network.link_names, self.pairs, network=self.network
            )
        return self._base_matrix

    def _replay_reservations(
        self, paths: Mapping[NodePair, Path]
    ) -> tuple[dict[str, float], set[NodePair]]:
        """Reconstruct the RSVP reservation state behind ``paths``.

        Replays admission in the CSPF signalling order (largest bandwidth
        first, pair-name tie-break): an LSP whose path has enough free
        capacity at its turn reserves it; one that does not was a
        non-strict fallback and holds nothing.  For paths produced by
        :meth:`CSPFRouter.signal_mesh` this reproduces the router's exact
        reserved table and holder set.
        """
        reserved = {name: 0.0 for name in self.network.link_names}
        holders: set[NodePair] = set()
        capacity = {name: self.network.link(name).capacity_mbps for name in reserved}
        order = sorted(
            (pair for pair in self.pairs if self.bandwidths.get(pair, 0.0) > 0.0),
            key=lambda pair: (-self.bandwidths[pair], str(pair)),
        )
        for pair in order:
            bandwidth = self.bandwidths[pair]
            links = paths[pair].link_names()
            if all(capacity[name] - reserved[name] >= bandwidth - 1e-9 for name in links):
                for name in links:
                    reserved[name] += bandwidth
                holders.add(pair)
        return reserved, holders

    # ------------------------------------------------------------------
    # failure analysis
    # ------------------------------------------------------------------
    def _expand_failed(
        self, failed_links: Iterable[str], failed_nodes: Iterable[str]
    ) -> tuple[set[str], set[str]]:
        links = set(failed_links)
        nodes = set(failed_nodes)
        for name in links:
            self.network.link(name)
        for name in nodes:
            self.network.node(name)
            for link in self.network.outgoing_links(name):
                links.add(link.name)
            for link in self.network.incoming_links(name):
                links.add(link.name)
        return links, nodes

    def affected_pairs(
        self, failed_links: Iterable[str] = (), failed_nodes: Iterable[str] = ()
    ) -> tuple[NodePair, ...]:
        """Pairs whose base path traverses any failed element, canonical order."""
        links, nodes = self._expand_failed(failed_links, failed_nodes)
        return self._affected_from(links, nodes)

    def _affected_from(
        self, banned_links: set[str], banned_nodes: set[str]
    ) -> tuple[NodePair, ...]:
        touched: set[NodePair] = set()
        for name in banned_links:
            touched.update(self._pairs_by_link.get(name, ()))
        for name in banned_nodes:
            touched.update(self._pairs_by_node.get(name, ()))
        return tuple(sorted(touched, key=self.pairs.position))

    def _shortest_path_excluding(
        self,
        pair: NodePair,
        banned_links: set[str],
        banned_nodes: set[str],
        available: Optional[dict[str, float]] = None,
        bandwidth: float = 0.0,
    ) -> Optional[Path]:
        """Dijkstra over the surviving elements, same tie-breaking as the base.

        This runs the shared
        :func:`~repro.routing.shortest_path.constrained_dijkstra` with the
        failed links/nodes filtered out, so a surviving pair gets exactly
        the path a from-scratch rebuild of the surviving topology would
        give it.  With ``available`` it also skips links with less
        unreserved bandwidth than ``bandwidth`` (the CSPF admission test);
        returns ``None`` when the destination is unreachable.
        """

        def usable(link: Link) -> bool:
            if link.name in banned_links or link.target in banned_nodes:
                return False
            if available is not None and bandwidth > 0.0:
                return available[link.name] >= bandwidth - 1e-9
            return True

        return constrained_dijkstra(
            self.network, pair, lambda link: link.metric, usable=usable
        )

    def reroute(
        self, failed_links: Iterable[str] = (), failed_nodes: Iterable[str] = ()
    ) -> RerouteResult:
        """Re-route the mesh around the failed elements.

        Only the affected pairs are re-routed; everything else keeps its
        base path.  Pairs whose origin or destination failed, and pairs the
        failure partitions away from their destination, come back with a
        ``None`` path in :attr:`RerouteResult.paths`.
        """
        failed_links = tuple(failed_links)
        failed_nodes = tuple(failed_nodes)
        banned_links, banned_nodes = self._expand_failed(failed_links, failed_nodes)
        affected = self._affected_from(banned_links, banned_nodes)
        paths: dict[NodePair, Optional[Path]] = dict(self.base_paths)
        infeasible: list[NodePair] = []

        available: Optional[dict[str, float]] = None
        order = affected
        if self.bandwidths:
            # RSVP-TE repair: release the torn-down reservations — only for
            # LSPs that actually hold one; non-strict fallbacks reserved
            # nothing — then re-signal the affected LSPs largest-first
            # against what is left.
            reserved = dict(self._base_reserved)
            for pair in affected:
                bandwidth = self.bandwidths.get(pair, 0.0)
                if bandwidth and pair in self._reservation_holders:
                    for link in self.base_paths[pair].links:
                        reserved[link.name] -= bandwidth
            available = {
                name: self.network.link(name).capacity_mbps - reserved[name]
                for name in self.network.link_names
            }
            order = tuple(
                sorted(
                    affected,
                    key=lambda pair: (-self.bandwidths.get(pair, 0.0), str(pair)),
                )
            )

        for pair in order:
            if pair.origin in banned_nodes or pair.destination in banned_nodes:
                paths[pair] = None
                infeasible.append(pair)
                continue
            bandwidth = self.bandwidths.get(pair, 0.0)
            path = self._shortest_path_excluding(
                pair, banned_links, banned_nodes, available=available, bandwidth=bandwidth
            )
            if path is None and bandwidth > 0.0:
                # Non-strict CSPF: fall back to the unconstrained surviving
                # shortest path without reserving bandwidth.
                path = self._shortest_path_excluding(pair, banned_links, banned_nodes)
                bandwidth = 0.0
            if path is None:
                paths[pair] = None
                infeasible.append(pair)
                continue
            if available is not None and bandwidth > 0.0:
                for link in path.links:
                    available[link.name] -= bandwidth
            paths[pair] = path

        infeasible.sort(key=self.pairs.position)
        return RerouteResult(
            failed_links=tuple(sorted(set(failed_links))),
            failed_nodes=tuple(sorted(set(failed_nodes))),
            paths=paths,
            rerouted=affected,
            infeasible=tuple(infeasible),
        )

    def reroute_matrix(
        self,
        failed_links: Iterable[str] = (),
        failed_nodes: Iterable[str] = (),
    ) -> tuple[RoutingMatrix, RerouteResult]:
        """Post-failure routing matrix, rebuilt incrementally.

        The base coordinate arrays are reused: entries of unaffected
        columns are kept as-is and only the affected columns are replaced
        with the re-routed paths (infeasible pairs become all-zero
        columns).  Row and column orderings stay the *base* network's, so
        post-failure matrices of different cases stay directly comparable.
        """
        result = self.reroute(failed_links, failed_nodes)
        if not result.rerouted:
            return self.base_matrix, result

        affected_cols = np.asarray(
            [self.pairs.position(pair) for pair in result.rerouted], dtype=np.int64
        )
        keep = ~np.isin(self._base_cols, affected_cols)
        new_rows: list[int] = []
        new_cols: list[int] = []
        for pair in result.rerouted:
            path = result.paths[pair]
            if path is None:
                continue
            col = self.pairs.position(pair)
            for link in path.links:
                new_rows.append(self.network.link_index(link.name))
                new_cols.append(col)
        rows = np.concatenate([self._base_rows[keep], np.asarray(new_rows, dtype=np.int64)])
        cols = np.concatenate([self._base_cols[keep], np.asarray(new_cols, dtype=np.int64)])
        coo = scipy.sparse.coo_matrix(
            (np.ones(len(rows)), (rows, cols)),
            shape=(self.network.num_links, len(self.pairs)),
        )
        matrix = RoutingMatrix(coo, self.network.link_names, self.pairs, network=self.network)
        return matrix, result
