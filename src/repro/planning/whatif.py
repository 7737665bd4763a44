"""The what-if engine: failure cases in, post-failure routing and loads out.

:class:`WhatIfEngine` is the stateful heart of the planning subsystem.  It
owns one base topology, routes the LSP mesh over it **once** on IGP
shortest paths, and then answers failure questions cheaply:

* :meth:`routing_for` — the post-failure routing matrix of a case, from
  :func:`~repro.routing.routing_matrix.reroute` (only the demands whose
  path crossed a failed element are routed again, by the batched next-hop
  kernel with the failed links masked out), cached per failed-element set;
* :meth:`project` — push any traffic matrix through a case's surviving
  topology and get the :class:`~repro.planning.projection.LoadProjection`
  planning quantities (utilisations, headroom, congestion set);
* :meth:`worst_case` — the binding failure: the case with the highest
  projected maximum utilisation, the number capacity planning actually
  compares against 1.0.

:func:`full_rebuild_routing` is the deliberately naive reference — route
the whole mesh from scratch, pair by pair, on the surviving topology — used
by the parity tests and the acceptance benchmark to prove the engine
returns identical matrices (and to measure how much work it avoids).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse

from repro.errors import PlanningError, RoutingError, TopologyError
from repro.planning.failures import BASELINE, FailureCase, enumerate_failures, surviving_network
from repro.planning.projection import LoadProjection, project_load
from repro.routing.routing_matrix import (
    RerouteResult,
    RoutingMatrix,
    build_routing_matrix,
    reroute,
)
from repro.routing.shortest_path import ShortestPathRouter
from repro.topology.elements import NodePair, PairIndex
from repro.topology.network import Network
from repro.traffic.matrix import TrafficMatrix

__all__ = ["WhatIfEngine", "full_rebuild_routing"]

#: Per-case routing matrices a :class:`WhatIfEngine` keeps: a full
#: single-link sweep of the America-like network holds 284 sparse matrices,
#: so the bound is generous but finite.
CASE_CACHE_SIZE = 1024


class WhatIfEngine:
    """Failure what-if analysis over one base topology.

    Parameters
    ----------
    network:
        The base topology, routed on IGP shortest paths (the estimation
        benchmarks' model).
    utilisation_threshold:
        Default congestion threshold of the projections.
    """

    def __init__(self, network: Network, utilisation_threshold: float = 0.9) -> None:
        self.network = network
        self.utilisation_threshold = float(utilisation_threshold)
        #: Routing matrix of the intact topology.
        self.base_routing = build_routing_matrix(network)
        self._capacities = np.array(
            [link.capacity_mbps for link in network.links], dtype=float
        )
        self._case_cache: dict[
            tuple[tuple[str, ...], tuple[str, ...]], tuple[RoutingMatrix, RerouteResult]
        ] = {}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def cases(
        self, kinds: Sequence[str] = ("link",), include_baseline: bool = False
    ) -> tuple[FailureCase, ...]:
        """Enumerate failure cases of this engine's network."""
        return enumerate_failures(self.network, kinds=kinds, include_baseline=include_baseline)

    def routing_for(self, case: FailureCase) -> tuple[RoutingMatrix, RerouteResult]:
        """Post-failure routing matrix and reroute diagnostics for ``case``.

        Cached by the failed element sets (two cases failing the same
        elements share one entry regardless of their names or listing
        order); the matrix keeps the base link and pair orderings (failed
        links become zero rows, disconnected pairs zero columns).
        """
        key = (tuple(sorted(case.failed_links)), tuple(sorted(case.failed_nodes)))
        cached = self._case_cache.get(key)
        if cached is not None:
            return cached
        try:
            result = reroute(self.base_routing, case.failed_links, case.failed_nodes)
        except TopologyError as exc:
            # Same contract as surviving_network: a case naming unknown
            # elements is a planning error, whichever path evaluates it.
            raise PlanningError(f"failure case {case.name!r}: {exc}") from exc
        if len(self._case_cache) >= CASE_CACHE_SIZE:
            self._case_cache.pop(next(iter(self._case_cache)))
        self._case_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # projection
    # ------------------------------------------------------------------
    def project(
        self,
        matrix: TrafficMatrix,
        case: FailureCase = BASELINE,
        growth: float = 1.0,
        threshold: Optional[float] = None,
    ) -> LoadProjection:
        """Project ``matrix`` through the surviving topology of ``case``."""
        routing, result = self.routing_for(case)
        return project_load(
            routing,
            matrix,
            network=self.network,
            case=case,
            growth=growth,
            threshold=threshold if threshold is not None else self.utilisation_threshold,
            infeasible_pairs=result.infeasible,
            capacities=self._capacities,
        )

    def project_all(
        self,
        matrix: TrafficMatrix,
        cases: Optional[Iterable[FailureCase]] = None,
        growth: float = 1.0,
    ) -> list[LoadProjection]:
        """Project ``matrix`` through every case (default: all single links)."""
        cases = self.cases() if cases is None else cases
        return [self.project(matrix, case, growth=growth) for case in cases]

    def worst_case(
        self,
        matrix: TrafficMatrix,
        cases: Optional[Iterable[FailureCase]] = None,
        growth: float = 1.0,
        feasible_only: bool = False,
    ) -> LoadProjection:
        """The failure with the highest projected maximum utilisation.

        ``feasible_only`` restricts the search to cases that disconnect no
        demand (a partition's utilisation understates its severity — part
        of the traffic simply vanished).
        """
        projections = self.project_all(matrix, cases=cases, growth=growth)
        if feasible_only:
            projections = [p for p in projections if p.is_feasible]
        if not projections:
            raise PlanningError("no (feasible) failure cases to evaluate")
        return max(projections, key=lambda p: p.max_utilisation)


def full_rebuild_routing(
    network: Network, case: FailureCase, pairs: Optional[Sequence[NodePair]] = None
) -> tuple[RoutingMatrix, tuple[NodePair, ...]]:
    """From-scratch mesh re-route on the surviving topology (reference path).

    Builds the surviving network, routes **every** pair over it with the
    per-pair python Dijkstra (the same tie-breaking as the base routing),
    and assembles the matrix in the *base* pair and link order (zero
    columns for pairs the failure disconnects, zero rows for failed
    links).  Far more work than :func:`~repro.routing.routing_matrix.reroute`
    — kept as the ground truth the parity tests and the acceptance
    benchmark compare against.
    """
    pairs = PairIndex.of(pairs) if pairs is not None else network.node_pairs()
    survivor = surviving_network(network, case)
    router = ShortestPathRouter(survivor)
    rows: list[int] = []
    cols: list[int] = []
    infeasible: list[NodePair] = []
    for col, pair in enumerate(pairs):
        if not (survivor.has_node(pair.origin) and survivor.has_node(pair.destination)):
            infeasible.append(pair)
            continue
        try:
            path = router.shortest_path(pair)
        # Recorded structurally: the pair joins the projection's
        # infeasible_pairs, which every planning record reports.
        except RoutingError:  # reprolint: allow[fault-handling]
            infeasible.append(pair)
            continue
        for link in path.links:
            rows.append(network.link_index(link.name))
            cols.append(col)
    coo = scipy.sparse.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(network.num_links, len(pairs))
    )
    matrix = RoutingMatrix(coo, network.link_names, pairs, network=network)
    return matrix, tuple(infeasible)
