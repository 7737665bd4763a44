"""Routing substrate: IGP shortest path, CSPF/MPLS simulation, routing matrices.

The estimation problem ``R s = t`` needs the routing matrix ``R``; the paper
obtains it by simulating the CSPF routing of the MPLS LSP mesh.  This package
provides:

* :class:`~repro.routing.shortest_path.ShortestPathRouter` — IGP (Dijkstra)
  routing with deterministic tie-breaking and ECMP enumeration;
* :class:`~repro.routing.lsp.LSPMesh` and
  :class:`~repro.routing.lsp.ReservationState` — the MPLS tunnel mesh and
  RSVP-style bandwidth bookkeeping;
* :class:`~repro.routing.cspf.CSPFRouter` — constraint-based routing of the
  mesh;
* :class:`~repro.routing.routing_matrix.RoutingMatrix` — ``R`` in one CSR
  matrix with its link/pair labelling and the operator products — and the
  builders :func:`~repro.routing.routing_matrix.build_routing_matrix` /
  :func:`~repro.routing.routing_matrix.build_ecmp_routing_matrix`;
* :func:`~repro.routing.routing_matrix.reroute` — the matrix after link or
  node failures: the columns that crossed a failed element are re-routed by
  the same batched next-hop kernel with the failed links masked out, and
  every other column is kept (the planning and streaming layers' failure
  path);
* :class:`~repro.routing.backends.RoutingOperator` — the typed operator
  contract solvers assume of a routing matrix.
"""

from repro.routing.backends import RoutingOperator
from repro.routing.cspf import CSPFRouter
from repro.routing.lsp import LSP, LSPMesh, ReservationState
from repro.routing.routing_matrix import (
    RerouteResult,
    RoutingMatrix,
    build_ecmp_routing_matrix,
    build_routing_matrix,
    reroute,
)
from repro.routing.shortest_path import (
    Path,
    ShortestPathRouter,
    single_source_shortest_paths,
)

__all__ = [
    "Path",
    "ShortestPathRouter",
    "single_source_shortest_paths",
    "LSP",
    "LSPMesh",
    "ReservationState",
    "CSPFRouter",
    "RerouteResult",
    "RoutingMatrix",
    "build_routing_matrix",
    "build_ecmp_routing_matrix",
    "reroute",
    "RoutingOperator",
]
