"""Fault injection and graceful degradation for the estimation pipeline.

Three pieces, designed to compose:

* :mod:`repro.resilience.faults` — seeded :class:`FaultPlan`\\ s that
  corrupt poll matrices the way real collection infrastructure fails
  (loss bursts, counter resets, Counter32 wraps, clock skew, stuck
  counters, collector outages) plus :class:`WorkerFaultPlan` crash/hang
  injection for pool workers;
* :mod:`repro.resilience.budget` — cooperative :class:`SolverBudget`\\ s
  ticked inside the solver hot loops;
* :mod:`repro.resilience.supervisor` — the registry-integrated
  :class:`SupervisedEstimator` with budgets and fallback chains,
  reporting every degradation through a :class:`DegradationReport`.

The measurement and pool layers *duck-type* plans rather than importing
this package, so resilience stays a leaf in the import graph.
:class:`SupervisedEstimator` is exported lazily (PEP 562) because it pulls
in the estimation package.
"""

from __future__ import annotations

from repro.resilience.budget import SolverBudget, budget_tick, current_budget
from repro.resilience.faults import (
    ClockSkew,
    CollectorOutage,
    Counter32Wrap,
    CounterReset,
    FaultPlan,
    PollLossBurst,
    StuckCounter,
    WorkerFaultPlan,
    fault_plan,
)
from repro.resilience.report import (
    DegradationEvent,
    DegradationReport,
    FailureReason,
)

__all__ = [
    "SolverBudget",
    "budget_tick",
    "current_budget",
    "FaultPlan",
    "fault_plan",
    "PollLossBurst",
    "CounterReset",
    "Counter32Wrap",
    "ClockSkew",
    "StuckCounter",
    "CollectorOutage",
    "WorkerFaultPlan",
    "FailureReason",
    "DegradationEvent",
    "DegradationReport",
    "SupervisedEstimator",
]


def __getattr__(name: str):
    if name == "SupervisedEstimator":
        from repro.resilience.supervisor import SupervisedEstimator

        return SupervisedEstimator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
