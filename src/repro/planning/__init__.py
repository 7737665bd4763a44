"""Traffic-engineering planning: failure what-ifs, load projection, sweeps.

The paper motivates traffic-matrix estimation entirely through traffic
engineering — load balancing, capacity planning and failure analysis — and
this package is the subsystem that *consumes* estimated matrices for those
tasks:

* :mod:`~repro.planning.failures` — enumeration of failure cases
  (single link, bidirectional link pair, whole node) and the surviving
  topology they leave behind;
* :mod:`~repro.planning.whatif` — the :class:`~repro.planning.whatif.WhatIfEngine`,
  which routes the base mesh once and, per failure, routes again only the
  demands the failure touches
  (:func:`~repro.routing.routing_matrix.reroute`: the batched next-hop
  kernel with the failed links masked out, the other columns kept);
* :mod:`~repro.planning.projection` — link loads, utilisations, headroom
  and congestion sets for any traffic matrix pushed through a what-if
  topology, scaled by a demand-growth factor;
* :mod:`~repro.planning.sweep` — :func:`~repro.planning.sweep.failure_sweep`,
  which scores every estimation method by the planning error it induces
  across all failures, with ``summary_table``-style aggregation and figure
  helpers.

Entry point: ``scenario.planning()`` returns a ready
:class:`~repro.planning.whatif.WhatIfEngine` for a scenario's network.
"""

from repro.planning.failures import (
    BASELINE,
    FailureCase,
    enumerate_failures,
    surviving_network,
)
from repro.planning.projection import LoadProjection, project_load
from repro.planning.sweep import (
    PlanningRecord,
    failure_sweep,
    planning_summary_table,
    utilisation_error_profile,
)
from repro.planning.whatif import WhatIfEngine, full_rebuild_routing

__all__ = [
    "FailureCase",
    "BASELINE",
    "enumerate_failures",
    "surviving_network",
    "LoadProjection",
    "project_load",
    "WhatIfEngine",
    "full_rebuild_routing",
    "PlanningRecord",
    "failure_sweep",
    "planning_summary_table",
    "utilisation_error_profile",
]
