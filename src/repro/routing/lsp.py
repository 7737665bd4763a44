"""MPLS label-switched paths (LSPs) and RSVP-style bandwidth reservation.

Global Crossing's backbone runs a full mesh of LSPs between core routers;
each LSP carries a bandwidth value, the head-end router computes a
constrained shortest path (CSPF) honouring that bandwidth, and RSVP reserves
the bandwidth along the path.  Measuring per-LSP byte counters is what gives
the paper its complete traffic matrix.

This module models that machinery:

* :class:`LSP` — a tunnel between a head-end and tail-end with a reserved
  bandwidth and (once signalled) an explicit path;
* :class:`ReservationState` — per-link bookkeeping of reserved bandwidth,
  mimicking the RSVP-TE state a router would hold;
* :class:`LSPMesh` — a full mesh of LSPs between the edge nodes of a
  network, which together with :class:`~repro.routing.cspf.CSPFRouter`
  reproduces the network architecture described in Section 5.1.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from repro.errors import RoutingError
from repro.routing.shortest_path import Path
from repro.topology.elements import NodePair
from repro.topology.network import Network

__all__ = ["LSP", "ReservationState", "LSPMesh"]


@dataclass
class LSP:
    """A label-switched path (MPLS tunnel).

    Attributes
    ----------
    pair:
        Head-end / tail-end node pair.
    bandwidth_mbps:
        The bandwidth value associated with the LSP; CSPF only considers
        paths with at least this much unreserved capacity.
    path:
        The signalled path, or ``None`` while the LSP is unsignalled.
    setup_priority:
        RSVP-TE setup priority (0 = most important).  LSPs are signalled in
        priority order by :class:`LSPMesh`.
    """

    pair: NodePair
    bandwidth_mbps: float = 0.0
    path: Optional[Path] = None
    setup_priority: int = 7

    def __post_init__(self) -> None:
        if self.bandwidth_mbps < 0:
            raise RoutingError(f"LSP {self.pair} has negative bandwidth")
        if not 0 <= self.setup_priority <= 7:
            raise RoutingError("setup_priority must be in 0..7")

    @property
    def name(self) -> str:
        """Canonical tunnel name, e.g. ``"lsp:LON->FRA"``."""
        return f"lsp:{self.pair.origin}->{self.pair.destination}"

    def signal(self, path: Path) -> None:
        """Attach a signalled path, verifying it matches the LSP endpoints."""
        if path.pair != self.pair:
            raise RoutingError(
                f"path endpoints {path.pair} do not match LSP {self.pair}"
            )
        self.path = path


class ReservationState:
    """Per-link reserved-bandwidth bookkeeping (RSVP-TE style).

    Parameters
    ----------
    network:
        Topology whose links are tracked.
    oversubscription:
        Factor applied to link capacities when checking admission; ``1.0``
        (default) means reservations may not exceed the physical capacity,
        larger values emulate operators that oversubscribe reservations.
    """

    def __init__(self, network: Network, oversubscription: float = 1.0) -> None:
        if oversubscription <= 0:
            raise RoutingError("oversubscription factor must be positive")
        self.network = network
        self.oversubscription = oversubscription
        self._reserved: dict[str, float] = {name: 0.0 for name in network.link_names}

    def available(self, link_name: str) -> float:
        """Unreserved bandwidth on ``link_name`` in Mbit/s."""
        link = self.network.link(link_name)
        return link.capacity_mbps * self.oversubscription - self._reserved[link_name]

    def can_admit(self, path: Path, bandwidth_mbps: float) -> bool:
        """Whether ``bandwidth_mbps`` fits on every link of ``path``."""
        return all(self.available(link.name) >= bandwidth_mbps - 1e-9 for link in path.links)

    def reserve(self, path: Path, bandwidth_mbps: float) -> None:
        """Reserve bandwidth along ``path``, raising if admission fails."""
        if bandwidth_mbps < 0:
            raise RoutingError("cannot reserve negative bandwidth")
        if not self.can_admit(path, bandwidth_mbps):
            raise RoutingError(
                f"admission failure for {path.pair}: {bandwidth_mbps} Mbit/s "
                "does not fit on the path"
            )
        for link in path.links:
            self._reserved[link.name] += bandwidth_mbps

    def utilisation(self, link_name: str) -> float:
        """Reserved fraction of the physical capacity of ``link_name``."""
        link = self.network.link(link_name)
        return self._reserved[link_name] / link.capacity_mbps

    def snapshot(self) -> dict[str, float]:
        """Copy of the reserved-bandwidth table (for tests and inspection)."""
        return dict(self._reserved)


class LSPMesh:
    """A full mesh of LSPs between the edge nodes of a network.

    The mesh is the measurement vehicle of the paper: once every LSP is
    signalled, per-LSP byte counters *are* the traffic matrix.

    Parameters
    ----------
    network:
        The backbone.
    bandwidths:
        Optional mapping from node pair to the LSP bandwidth value; pairs
        not present get a zero-bandwidth LSP (CSPF then degenerates to
        shortest path).
    """

    def __init__(
        self,
        network: Network,
        bandwidths: Optional[Mapping[NodePair, float]] = None,
    ) -> None:
        self.network = network
        bandwidths = dict(bandwidths or {})
        unknown = set(bandwidths) - set(network.node_pairs())
        if unknown:
            raise RoutingError(f"bandwidths reference unknown pairs: {sorted(map(str, unknown))}")
        self._lsps: dict[NodePair, LSP] = {}
        for pair in network.node_pairs():
            self._lsps[pair] = LSP(pair=pair, bandwidth_mbps=float(bandwidths.get(pair, 0.0)))

    @property
    def lsps(self) -> tuple[LSP, ...]:
        """All LSPs in canonical pair order."""
        return tuple(self._lsps.values())

    def lsp(self, pair: NodePair) -> LSP:
        """Return the LSP for ``pair``."""
        try:
            return self._lsps[pair]
        except KeyError as exc:
            raise RoutingError(f"no LSP for pair {pair}") from exc

    def __len__(self) -> int:
        return len(self._lsps)

    def __iter__(self) -> Iterator[LSP]:
        return iter(self._lsps.values())

    def signalled_paths(self) -> dict[NodePair, Path]:
        """Paths of all signalled LSPs, in canonical order.

        Raises
        ------
        RoutingError
            If any LSP is still unsignalled; the routing matrix requires a
            path for every pair.
        """
        paths: dict[NodePair, Path] = {}
        for pair, lsp in self._lsps.items():
            if lsp.path is None:
                raise RoutingError(f"LSP for pair {pair} has not been signalled")
            paths[pair] = lsp.path
        return paths
