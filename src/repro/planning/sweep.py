"""Failure sweeps: scoring estimation methods by the planning error they induce.

The paper's argument for its MRE metric is that estimation errors matter
*through* traffic engineering: a wrong estimate matters exactly as much as
it distorts the utilisations an operator plans with.  :func:`failure_sweep`
closes that loop.  For every registered estimation method (described by the
same :class:`~repro.evaluation.experiments.MethodSpec` lists the Table 2
runner uses) it

1. estimates the traffic matrix from the scenario's observables (sharing
   problems and fanning specs out in dependency waves, the PR 3 machinery);
2. pushes both the truth and the estimate through every failure case's
   surviving topology via the :class:`~repro.planning.whatif.WhatIfEngine`;
3. records, per ``(method, case)``, the utilisation numbers a planner would
   compare: predicted vs true maximum utilisation, per-link utilisation
   error, and the congestion-set confusion counts.

Failure cases are independent units of work, so ``n_jobs`` fans them over a
process pool; the engine and the estimates travel as a shared payload
(:func:`repro.parallel.share_payload`) — inherited copy-on-write by fork
workers, shipped once per worker elsewhere, never pickled per case — and
serial and parallel runs produce identical records in identical order.  Cases that partition the network yield structured
``feasible=False`` records — never an exception — and the aggregation
(:func:`planning_summary_table`) reports them separately instead of mixing
their truncated utilisations into the error statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import telemetry
from repro.datasets.scenarios import Scenario
from repro.errors import PlanningError
from repro.evaluation.experiments import (
    MethodSpec,
    SpecEstimate,
    default_method_specs,
    estimate_method_specs,
)
from repro.parallel import (
    effective_jobs,
    release_payload,
    resolve_payload,
    run_supervised_tasks,
    share_payload,
)
from repro.planning.failures import FailureCase, enumerate_failures
from repro.planning.projection import LoadProjection
from repro.planning.whatif import WhatIfEngine
from repro.resilience.report import FailureReason

__all__ = [
    "PlanningRecord",
    "failure_sweep",
    "planning_summary_table",
    "utilisation_error_profile",
]


@dataclass(frozen=True)
class PlanningRecord:
    """Planning score of one estimation method on one failure case.

    Attributes
    ----------
    scenario, method, case, kind:
        Identification: scenario name, method-spec label, failure-case name
        and kind.
    feasible:
        Whether every demand survived the failure; infeasible records keep
        their (surviving-traffic) utilisation numbers but are reported
        separately by the aggregations.
    num_infeasible_pairs:
        Demands the failure disconnected.
    lost_traffic:
        True traffic volume of the disconnected demands in Mbit/s.
    predicted_max_utilisation, true_max_utilisation:
        The planner's headline number, from the estimate and from the truth.
    max_utilisation_error:
        ``|predicted - true|`` maximum utilisation.
    mean_utilisation_error:
        Mean absolute per-link utilisation error.
    congestion_hits, congestion_misses, congestion_false_alarms:
        Confusion counts of the congestion set (links above the threshold):
        truly congested links the estimate flags / misses, and links
        flagged without being congested.
    failure:
        Structured reason the method was skipped on this scenario (``None``
        when it ran); skipped records carry ``NaN`` utilisation numbers.
    degradation:
        Degradation-report dict from the method's diagnostics
        (supervised estimators), ``None`` for a clean run.
    """

    scenario: str
    method: str
    case: str
    kind: str
    feasible: bool
    num_infeasible_pairs: int
    lost_traffic: float
    predicted_max_utilisation: float
    true_max_utilisation: float
    max_utilisation_error: float
    mean_utilisation_error: float
    congestion_hits: int
    congestion_misses: int
    congestion_false_alarms: int
    failure: Optional[FailureReason] = None
    degradation: Optional[dict] = None

    @property
    def skipped(self) -> bool:
        """Whether the method could not run on this scenario's data."""
        return self.failure is not None


def _case_record(
    scenario_name: str,
    case: FailureCase,
    result: SpecEstimate,
    truth_projection: LoadProjection,
    estimate_projection: Optional[LoadProjection],
) -> PlanningRecord:
    """Assemble one record from the truth and estimate projections."""
    if estimate_projection is None:
        return PlanningRecord(
            scenario=scenario_name,
            method=result.label,
            case=case.name,
            kind=case.kind,
            feasible=truth_projection.is_feasible,
            num_infeasible_pairs=len(truth_projection.infeasible_pairs),
            lost_traffic=truth_projection.lost_traffic,
            predicted_max_utilisation=float("nan"),
            true_max_utilisation=truth_projection.max_utilisation,
            max_utilisation_error=float("nan"),
            mean_utilisation_error=float("nan"),
            congestion_hits=0,
            congestion_misses=0,
            congestion_false_alarms=0,
            failure=result.failure,
        )
    true_congested = set(truth_projection.congested_links)
    predicted_congested = set(estimate_projection.congested_links)
    utilisation_errors = np.abs(
        estimate_projection.utilisations - truth_projection.utilisations
    )
    return PlanningRecord(
        scenario=scenario_name,
        method=result.label,
        case=case.name,
        kind=case.kind,
        feasible=truth_projection.is_feasible,
        num_infeasible_pairs=len(truth_projection.infeasible_pairs),
        lost_traffic=truth_projection.lost_traffic,
        predicted_max_utilisation=estimate_projection.max_utilisation,
        true_max_utilisation=truth_projection.max_utilisation,
        max_utilisation_error=abs(
            estimate_projection.max_utilisation - truth_projection.max_utilisation
        ),
        mean_utilisation_error=float(utilisation_errors.mean()),
        congestion_hits=len(true_congested & predicted_congested),
        congestion_misses=len(true_congested - predicted_congested),
        congestion_false_alarms=len(predicted_congested - true_congested),
        degradation=result.degradation,
    )


def _evaluate_case(
    case: FailureCase,
    engine: WhatIfEngine,
    scenario_name: str,
    estimates: Sequence[SpecEstimate],
    growth: float,
) -> list[PlanningRecord]:
    """All records of one failure case (one unit of parallel work).

    Distinct truth matrices (snapshot vs series-window specs) are projected
    once each; every method estimate is projected against its own truth.
    """
    truth_projections: dict[int, LoadProjection] = {}
    records: list[PlanningRecord] = []
    for result in estimates:
        truth_key = id(result.truth)
        if truth_key not in truth_projections:
            truth_projections[truth_key] = engine.project(result.truth, case, growth=growth)
        truth_projection = truth_projections[truth_key]
        estimate_projection = (
            None
            if result.estimate is None
            else engine.project(result.estimate, case, growth=growth)
        )
        records.append(
            _case_record(scenario_name, case, result, truth_projection, estimate_projection)
        )
    return records


def _evaluate_case_pooled(case: FailureCase, state_ref) -> list[PlanningRecord]:
    """Pool entry point: the sweep state arrives as a shared-payload ref.

    The engine (with its routing matrix), the estimates and the growth
    factor are registered once via :func:`repro.parallel.share_payload`;
    fork workers inherit them without any pickling, spawn workers receive
    them once per worker through the executor initializer — never once per
    case.
    """
    engine, scenario_name, estimates, growth = resolve_payload(state_ref)
    return _evaluate_case(case, engine, scenario_name, estimates, growth)


def failure_sweep(
    scenario: Scenario,
    specs: Optional[Sequence[MethodSpec]] = None,
    cases: Optional[Sequence[FailureCase]] = None,
    n_jobs: Optional[int] = 1,
    growth: float = 1.0,
    utilisation_threshold: float = 0.9,
    include_baseline: bool = True,
    skip_errors: bool = True,
    estimates: Optional[Sequence[SpecEstimate]] = None,
    task_timeout: Optional[float] = None,
    max_resubmissions: int = 1,
) -> list[PlanningRecord]:
    """Score estimation methods by the planning error they induce per failure.

    Parameters
    ----------
    scenario:
        The scenario whose observables feed the estimators and whose
        network the failures hit.
    specs:
        Method specs to evaluate (default: the paper's Table 2 set without
        Vardi, whose long series window adds little to a planning
        comparison).  Estimates are computed **once**, before any failure
        case runs, via :func:`~repro.evaluation.experiments.estimate_method_specs`.
    cases:
        Failure cases (default: every single-link failure plus the
        baseline when ``include_baseline``).
    n_jobs:
        Worker processes for the failure cases (``1`` = the serial loop,
        ``None`` = all cores); the spec estimation phase reuses the same
        value for its dependency waves.  Parallel records are identical to
        serial ones, in the same case-major order.
    growth:
        Uniform demand-growth factor applied to truth and estimates alike
        (the "traffic x1.5" planning knob).
    utilisation_threshold:
        Congestion threshold for the congestion-set confusion counts.
    include_baseline:
        Prepend the intact-topology case when ``cases`` is not given.
    skip_errors:
        Record methods that cannot run on this scenario's observables as
        skipped rows instead of raising.
    estimates:
        Pre-computed :class:`~repro.evaluation.experiments.SpecEstimate`
        results to project instead of running the estimation phase —
        useful when the same estimates feed several sweeps (different
        growth factors, case sets) or when the matrices come from outside
        the spec machinery.  ``specs`` and ``skip_errors`` are ignored.
    task_timeout, max_resubmissions:
        Pool supervision knobs (see
        :func:`repro.parallel.run_supervised_tasks`): per-case timeout in
        seconds and resubmission budget before the parent re-runs a case
        serially.  Shared with the spec estimation phase.
    """
    if growth < 0:
        raise PlanningError("demand growth factor must be non-negative")
    if estimates is None:
        if specs is None:
            specs = default_method_specs(include_vardi=False)
        estimates = estimate_method_specs(
            scenario,
            specs,
            n_jobs=n_jobs,
            skip_errors=skip_errors,
            task_timeout=task_timeout,
            max_resubmissions=max_resubmissions,
        )
    if cases is None:
        cases = enumerate_failures(
            scenario.network, kinds=("link",), include_baseline=include_baseline
        )
    engine = WhatIfEngine(scenario.network, utilisation_threshold=utilisation_threshold)

    jobs = effective_jobs(n_jobs, len(cases), error=PlanningError)
    with telemetry.span("planning.failure_sweep", cases=len(cases), jobs=jobs):
        state_ref = share_payload((engine, scenario.name, estimates, growth))
        try:
            case_records, _pool_report = run_supervised_tasks(
                _evaluate_case_pooled,
                [(case, state_ref) for case in cases],
                jobs=jobs,
                timeout=task_timeout,
                max_resubmissions=max_resubmissions,
            )
        finally:
            release_payload(state_ref)
    return [record for case in case_records for record in case]


def planning_summary_table(
    records: Sequence[PlanningRecord],
) -> dict[str, dict[str, float]]:
    """Aggregate sweep records per method (``summary_table``-style layout).

    For every method the table reports, over the *feasible* cases: the mean
    and worst absolute max-utilisation error, the mean per-link utilisation
    error, the true and predicted worst-case utilisation across all
    failures (the capacity-planning headline), and congestion recall /
    precision (``NaN`` when no link ever crosses the threshold — the score
    is undefined without positives).  Infeasible and skipped cases are
    counted, not averaged; the
    categories are disjoint (a skipped record counts as skipped even when
    its case also partitions the network), so ``cases`` equals the scored
    rows plus ``infeasible_cases`` plus ``skipped_cases``.
    """
    table: dict[str, dict[str, float]] = {}
    methods = list(dict.fromkeys(record.method for record in records))
    for method in methods:
        rows = [record for record in records if record.method == method]
        feasible = [row for row in rows if row.feasible and not row.skipped]
        summary: dict[str, float] = {
            "cases": float(len(rows)),
            "infeasible_cases": float(
                sum(1 for row in rows if not row.feasible and not row.skipped)
            ),
            "skipped_cases": float(sum(1 for row in rows if row.skipped)),
        }
        if feasible:
            summary["mean_max_utilisation_error"] = float(
                np.mean([row.max_utilisation_error for row in feasible])
            )
            summary["worst_max_utilisation_error"] = float(
                np.max([row.max_utilisation_error for row in feasible])
            )
            summary["mean_link_utilisation_error"] = float(
                np.mean([row.mean_utilisation_error for row in feasible])
            )
            summary["true_worst_case_utilisation"] = float(
                np.max([row.true_max_utilisation for row in feasible])
            )
            summary["predicted_worst_case_utilisation"] = float(
                np.max([row.predicted_max_utilisation for row in feasible])
            )
            # NaN, not a vacuous 100 %, when no link is ever (predicted)
            # congested — the score is undefined without positives.
            hits = sum(row.congestion_hits for row in feasible)
            misses = sum(row.congestion_misses for row in feasible)
            false_alarms = sum(row.congestion_false_alarms for row in feasible)
            summary["congestion_recall"] = (
                hits / (hits + misses) if hits + misses else float("nan")
            )
            summary["congestion_precision"] = (
                hits / (hits + false_alarms) if hits + false_alarms else float("nan")
            )
        table[method] = summary
    return table


def utilisation_error_profile(
    records: Sequence[PlanningRecord],
) -> dict[str, dict[str, np.ndarray]]:
    """Figure data: per-method utilisation-error profile across failure cases.

    For every method the feasible, non-skipped cases are sorted by true
    maximum utilisation (descending — the binding failures first, which is
    how a planner reads the sweep) and the true and predicted curves are
    returned together with the per-case absolute error.  Plot the two
    curves against the case rank to see where an estimate would mislead
    capacity planning.
    """
    profile: dict[str, dict[str, np.ndarray]] = {}
    methods = list(dict.fromkeys(record.method for record in records))
    for method in methods:
        rows = [
            record
            for record in records
            if record.method == method and record.feasible and not record.skipped
        ]
        if not rows:
            continue
        rows.sort(key=lambda row: -row.true_max_utilisation)
        profile[method] = {
            "case": np.array([row.case for row in rows]),
            "true_max_utilisation": np.array([row.true_max_utilisation for row in rows]),
            "predicted_max_utilisation": np.array(
                [row.predicted_max_utilisation for row in rows]
            ),
            "max_utilisation_error": np.array([row.max_utilisation_error for row in rows]),
        }
    return profile
