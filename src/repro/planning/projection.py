"""Load projection: pushing traffic matrices through what-if topologies.

A traffic matrix only becomes decision-relevant once it is turned into link
loads: load balancing, capacity planning and failure analysis — the tasks
the paper motivates estimation with — all reason about *utilisation* (load
over capacity).  This module projects any :class:`~repro.traffic.matrix.TrafficMatrix`
(true, estimated, or a worst-case bound) through a routing matrix and
reports the planning quantities:

* per-link loads and utilisations,
* the maximum utilisation and its headroom (how much uniform demand growth
  the topology can still absorb),
* the congestion set (links above an operator threshold), and
* for infeasible cases, the demands a partition disconnects and the traffic
  volume they carried.

:func:`project_load`'s ``growth`` factor is the "traffic grows 1.5x" knob:
planning studies routinely project a uniformly scaled matrix through the
same failure cases to find which link saturates first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import PlanningError
from repro.planning.failures import BASELINE, FailureCase
from repro.routing.routing_matrix import RoutingMatrix
from repro.topology.elements import NodePair
from repro.topology.network import Network
from repro.traffic.matrix import TrafficMatrix

__all__ = ["LoadProjection", "project_load"]


@dataclass(frozen=True)
class LoadProjection:
    """Per-link planning quantities of one matrix on one what-if topology.

    Attributes
    ----------
    case:
        The failure case the routing belongs to.
    link_names:
        Link ordering of ``loads`` / ``utilisations`` (the *base* network's
        canonical order; failed links carry zero load).
    loads:
        Projected link loads ``t = R s`` in Mbit/s.
    utilisations:
        ``loads / capacity`` per link.
    threshold:
        Utilisation level above which a link counts as congested.
    infeasible_pairs:
        Demands the failure disconnects (empty when the case is feasible).
    lost_traffic:
        Total volume of the disconnected demands (their traffic is *not*
        part of ``loads`` — it has nowhere to go).
    """

    case: FailureCase
    link_names: tuple[str, ...]
    loads: np.ndarray
    utilisations: np.ndarray
    threshold: float = 0.9
    infeasible_pairs: tuple[NodePair, ...] = ()
    lost_traffic: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "loads", np.asarray(self.loads, dtype=float))
        object.__setattr__(self, "utilisations", np.asarray(self.utilisations, dtype=float))
        if self.loads.shape != (len(self.link_names),):
            raise PlanningError(
                f"loads have shape {self.loads.shape}, expected ({len(self.link_names)},)"
            )
        if self.utilisations.shape != self.loads.shape:
            raise PlanningError("loads and utilisations must have the same shape")
        if not 0 < self.threshold:
            raise PlanningError("congestion threshold must be positive")

    @property
    def is_feasible(self) -> bool:
        """Whether every demand survived the failure."""
        return not self.infeasible_pairs

    @property
    def max_utilisation(self) -> float:
        """Utilisation of the most loaded link."""
        return float(self.utilisations.max()) if len(self.utilisations) else 0.0

    @property
    def headroom(self) -> float:
        """Uniform growth factor that saturates the most loaded link.

        A headroom of 1.25 means traffic can grow 25 % before the worst
        link hits full utilisation; below 1.0 the topology is already
        congested.  Infinite when nothing is loaded.
        """
        peak = self.max_utilisation
        return float("inf") if peak <= 0 else 1.0 / peak

    @property
    def congested_links(self) -> tuple[str, ...]:
        """Links whose utilisation exceeds the threshold, canonical order."""
        over = self.utilisations > self.threshold
        return tuple(name for name, flag in zip(self.link_names, over) if flag)

    def utilisation_of(self, link_name: str) -> float:
        """Utilisation of one link by name."""
        try:
            return float(self.utilisations[self.link_names.index(link_name)])
        except ValueError as exc:
            raise PlanningError(f"unknown link {link_name!r} in projection") from exc

    def top_links(self, count: int = 10) -> tuple[tuple[str, float], ...]:
        """The ``count`` most utilised links as ``(name, utilisation)`` pairs."""
        order = np.argsort(-self.utilisations, kind="stable")[:count]
        return tuple((self.link_names[i], float(self.utilisations[i])) for i in order)


def project_load(
    routing: RoutingMatrix,
    matrix: TrafficMatrix,
    network: Optional[Network] = None,
    case: FailureCase = BASELINE,
    growth: float = 1.0,
    threshold: float = 0.9,
    infeasible_pairs: Sequence[NodePair] = (),
    capacities: Optional[np.ndarray] = None,
) -> LoadProjection:
    """Project ``matrix`` (scaled by ``growth``) through ``routing``.

    Parameters
    ----------
    routing:
        The (possibly post-failure) routing matrix.  Infeasible pairs must
        already have all-zero columns, which is what
        :func:`~repro.routing.routing_matrix.reroute` produces.
    matrix:
        Traffic matrix over the same pair ordering.
    network:
        Source of link capacities; defaults to ``routing.network``.
    case, growth, threshold:
        Metadata and knobs recorded on the projection.
    infeasible_pairs:
        Pairs the failure disconnected (their volume is reported as lost).
    capacities:
        Pre-computed capacity vector aligned with ``routing.link_names``
        (avoids the per-link lookup in hot sweeps).
    """
    if matrix.pairs != routing.pairs:
        raise PlanningError("traffic matrix and routing matrix use different pair orderings")
    if growth < 0:
        raise PlanningError("demand growth factor must be non-negative")
    network = network if network is not None else routing.network
    if capacities is None:
        if network is None:
            raise PlanningError("load projection needs a network or explicit capacities")
        capacities = np.array(
            [network.link(name).capacity_mbps for name in routing.link_names], dtype=float
        )
    demands = matrix.vector * float(growth)  # fresh array; safe to zero below
    infeasible = tuple(infeasible_pairs)
    lost = 0.0
    if infeasible:
        positions = [routing.pair_index(pair) for pair in infeasible]
        lost = float(demands[positions].sum())
        demands[positions] = 0.0
    loads = routing.link_loads(demands)
    return LoadProjection(
        case=case,
        link_names=routing.link_names,
        loads=loads,
        utilisations=loads / capacities,
        threshold=threshold,
        infeasible_pairs=infeasible,
        lost_traffic=lost,
    )
