"""Constrained shortest path first (CSPF) routing for MPLS LSPs.

The paper builds its routing matrix by *simulating* the constraint-based
routing protocol used by the routers (Section 5.1.3, using Cariden MATE).
This module provides the equivalent simulator: given an
:class:`~repro.routing.lsp.LSPMesh` with per-LSP bandwidth values, the
:class:`CSPFRouter` signals every LSP along the shortest path that still has
the required unreserved bandwidth, updating RSVP-style reservation state as
it goes.

When a bandwidth-feasible path does not exist, the router either falls back
to the unconstrained shortest path (the default, matching the common
operational practice of letting the LSP come up anyway) or raises, depending
on ``strict`` mode.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import RoutingError
from repro.routing.lsp import LSP, LSPMesh, ReservationState
from repro.routing.shortest_path import Path, ShortestPathRouter, constrained_dijkstra
from repro.topology.elements import Link, NodePair
from repro.topology.network import Network

__all__ = ["CSPFRouter"]


class CSPFRouter:
    """Constraint-based shortest-path routing with bandwidth reservation.

    Parameters
    ----------
    network:
        The backbone to route over.
    oversubscription:
        Reservation oversubscription factor forwarded to
        :class:`~repro.routing.lsp.ReservationState`.
    strict:
        If ``True``, an LSP whose bandwidth cannot be placed raises
        :class:`~repro.errors.RoutingError`.  If ``False`` (default) the LSP
        falls back to the plain shortest path without reserving bandwidth,
        which keeps the routing matrix complete.
    """

    def __init__(
        self,
        network: Network,
        oversubscription: float = 1.0,
        strict: bool = False,
    ) -> None:
        self.network = network
        self.reservations = ReservationState(network, oversubscription=oversubscription)
        self.strict = strict
        self._fallback = ShortestPathRouter(network)

    # ------------------------------------------------------------------
    def constrained_shortest_path(
        self, pair: NodePair, bandwidth_mbps: float
    ) -> Optional[Path]:
        """Dijkstra over links with enough unreserved bandwidth.

        Returns ``None`` when no feasible path exists (the caller decides
        whether to fall back or fail).
        """
        if bandwidth_mbps < 0:
            raise RoutingError("bandwidth must be non-negative")
        self.network.node(pair.origin)
        self.network.node(pair.destination)

        def usable(link: Link) -> bool:
            return self.reservations.available(link.name) >= bandwidth_mbps - 1e-9

        return constrained_dijkstra(
            self.network, pair, lambda link: link.metric, usable=usable
        )

    # ------------------------------------------------------------------
    def signal_lsp(self, lsp: LSP) -> Path:
        """Signal a single LSP, reserving bandwidth along the chosen path.

        Returns the path that was installed.  In non-strict mode an
        infeasible LSP is routed along the unconstrained shortest path and
        no bandwidth is reserved for it.
        """
        path = self.constrained_shortest_path(lsp.pair, lsp.bandwidth_mbps)
        if path is not None:
            self.reservations.reserve(path, lsp.bandwidth_mbps)
            lsp.signal(path)
            return path
        if self.strict:
            raise RoutingError(
                f"CSPF could not place LSP {lsp.pair} with "
                f"{lsp.bandwidth_mbps} Mbit/s"
            )
        fallback = self._fallback.shortest_path(lsp.pair)
        lsp.signal(fallback)
        return fallback

    def signal_mesh(self, mesh: LSPMesh, order: str = "bandwidth") -> dict[NodePair, Path]:
        """Signal every LSP of ``mesh`` and return the resulting paths.

        Parameters
        ----------
        mesh:
            The LSP mesh (must belong to the same network).
        order:
            Signalling order: ``"bandwidth"`` (default) signals the largest
            LSPs first, mimicking offline re-optimisation and matching the
            paper's decision to route aggregated demands along the path of
            the largest original demand; ``"priority"`` uses the RSVP setup
            priority; ``"pair"`` uses the canonical pair order.
        """
        if mesh.network is not self.network:
            raise RoutingError("LSP mesh belongs to a different network")
        lsps = list(mesh.lsps)
        if order == "bandwidth":
            lsps.sort(key=lambda lsp: (-lsp.bandwidth_mbps, str(lsp.pair)))
        elif order == "priority":
            lsps.sort(key=lambda lsp: (lsp.setup_priority, str(lsp.pair)))
        elif order == "pair":
            pass
        else:
            raise RoutingError(f"unknown signalling order {order!r}")
        for lsp in lsps:
            self.signal_lsp(lsp)
        return mesh.signalled_paths()

    def route_all(
        self,
        *,
        pairs: Optional[Sequence[NodePair]] = None,
        bandwidths: Optional[dict[NodePair, float]] = None,
    ) -> dict[NodePair, Path]:
        """Convenience wrapper: build a mesh, signal it, return the paths.

        With no ``bandwidths`` every LSP has zero bandwidth and CSPF
        degenerates to plain IGP shortest-path routing, which is the routing
        model the estimation benchmarks use.  Both arguments are
        keyword-only: a bandwidth mapping passed where ``pairs`` goes would
        be read as the pair subset and signal zero-bandwidth LSPs.
        """
        mesh = LSPMesh(self.network, bandwidths=bandwidths)
        if pairs is not None:
            requested = set(pairs)
            paths = self.signal_mesh(mesh)
            return {pair: path for pair, path in paths.items() if pair in requested}
        return self.signal_mesh(mesh)
