"""Experiment runners for the paper's tables.

* :func:`vardi_table` — Table 1: Vardi MRE for ``sigma^{-2} in {0.01, 1}``
  on the busy-period series (K = 50 samples);
* :func:`method_comparison` / :func:`summary_table` — Table 2: the best MRE
  achieved by every method on a scenario;
* :func:`robustness_sweep` / :func:`robustness_table` — noise-robustness
  study: the MRE of every registered method as a function of SNMP jitter
  and UDP loss, on measured-data scenarios built with
  :meth:`~repro.datasets.scenarios.Scenario.measured`;
* :class:`ExperimentRecord` — a small result container used by the
  benchmark harness and by EXPERIMENTS.md generation.

The runners are data-driven: a :class:`MethodSpec` names an estimator from
the registry (:mod:`repro.estimation.registry`), its constructor
parameters, and the data it consumes (snapshot or series window), so a new
estimation method — or a new experiment layout — composes by building a
spec list instead of editing the runner.  :func:`default_method_specs`
reproduces the paper's Table 2 configuration.  The runners consume the
scenario's ``snapshot_problem()`` / ``series_problem()`` accessors, so they
work unchanged on both consistent and measured scenarios.

Every runner takes an ``n_jobs`` parameter: the scenario problems are
built **once** in the parent process and the independent units of work —
method specs grouped into dependency waves for :func:`run_method_specs`,
``(scenario, jitter, loss)`` grid cells for :func:`robustness_sweep` —
are fanned out over a process pool.  ``n_jobs=1`` (the default) runs the
exact serial loop; parallel runs return records identical to it, in the
same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from repro import telemetry
from repro.datasets.scenarios import Scenario
from repro.errors import EstimationError, SolverError
from repro.estimation.registry import get_estimator
from repro.evaluation.metrics import mean_relative_error
from repro.parallel import (
    effective_jobs,
    release_payload,
    resolve_payload,
    run_supervised_tasks,
    share_payload,
)
from repro.resilience.report import FailureReason
from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "ExperimentRecord",
    "MethodSpec",
    "SpecEstimate",
    "default_method_specs",
    "estimate_method_specs",
    "run_method_specs",
    "vardi_table",
    "method_comparison",
    "summary_table",
    "RobustnessRecord",
    "robustness_sweep",
    "robustness_table",
]


@dataclass(frozen=True)
class ExperimentRecord:
    """One (scenario, method) MRE measurement.

    Attributes
    ----------
    scenario:
        Scenario name (``"europe"`` / ``"america"`` / ``"abilene"`` / ...).
    method:
        Method label as it appears in the paper's Table 2.
    mre:
        Mean relative error achieved (``NaN`` when the method was skipped).
    parameters:
        Free-form parameter description (regularisation value, window, ...).
    failure:
        Structured reason the method was skipped (``None`` when it ran);
        only populated under ``skip_errors``.
    degradation:
        The :class:`~repro.resilience.report.DegradationReport` dict the
        estimator attached to its diagnostics (supervised methods),
        ``None`` for a clean run.
    """

    scenario: str
    method: str
    mre: float
    parameters: dict[str, float] = field(default_factory=dict)
    failure: Optional[FailureReason] = None
    degradation: Optional[dict] = None

    @property
    def skipped(self) -> bool:
        """Whether the method could not run."""
        return self.failure is not None


@dataclass(frozen=True)
class MethodSpec:
    """Declarative description of one experiment row.

    Attributes
    ----------
    label:
        Row label of the record (e.g. ``"Entropy w. gravity prior"``).
    estimator:
        Registry name of the estimation method.
    params:
        Constructor parameters forwarded to
        :func:`repro.estimation.registry.get_estimator`.
    data:
        ``"snapshot"`` — estimate the busy-period mean from one consistent
        snapshot; ``"series"`` — estimate from a link-load series window.
    window:
        Series window length (``data="series"`` only; clamped to the busy
        period).
    prior_from:
        Label of an earlier spec whose estimate vector is passed as this
        estimator's ``prior`` parameter (e.g. the Bayesian method re-using
        the already-computed WCB prior instead of solving the LPs twice).
    """

    label: str
    estimator: str
    params: Mapping[str, Any] = field(default_factory=dict)
    data: str = "snapshot"
    window: Optional[int] = None
    prior_from: Optional[str] = None

    def __post_init__(self) -> None:
        if self.data not in ("snapshot", "series"):
            raise EstimationError(f"unknown method-spec data kind {self.data!r}")
        if self.data == "series" and self.window is not None and self.window < 1:
            raise EstimationError("series window must be at least 1")


def default_method_specs(
    regularization: float = 1000.0,
    small_regularization: float = 0.01,
    fanout_window: int = 10,
    vardi_window: int = 50,
    include_vardi: bool = True,
) -> tuple[MethodSpec, ...]:
    """The paper's Table 2 configuration as a spec tuple.

    The parameter defaults follow the paper: the regularised methods use a
    large regularisation value (1000), the WCB prior is evaluated both alone
    and inside the Bayesian method, the fanout method uses a window of 10
    snapshots, and Vardi uses the 50-sample busy period with
    ``sigma^{-2} = 0.01`` (its better setting in Table 1).
    """
    specs = [
        MethodSpec(label="Worst-case bound prior", estimator="worst-case-bounds"),
        MethodSpec(label="Simple gravity prior", estimator="gravity"),
        MethodSpec(
            label="Entropy w. gravity prior",
            estimator="entropy",
            params={"regularization": regularization, "prior": "gravity"},
        ),
        MethodSpec(
            label="Bayes w. gravity prior",
            estimator="bayesian",
            params={"regularization": regularization, "prior": "gravity"},
        ),
        MethodSpec(
            label="Bayes w. WCB prior",
            estimator="bayesian",
            params={"regularization": regularization},
            prior_from="Worst-case bound prior",
        ),
        MethodSpec(
            label="Fanout",
            estimator="fanout",
            params={"window_length": fanout_window},
            data="series",
            window=fanout_window,
        ),
    ]
    if include_vardi:
        specs.append(
            MethodSpec(
                label="Vardi",
                estimator="vardi",
                params={"poisson_weight": small_regularization},
                data="series",
                window=vardi_window,
            )
        )
    return tuple(specs)


def _recorded_parameters(spec: MethodSpec, window: Optional[int]) -> dict[str, float]:
    """Numeric parameters worth keeping in the experiment record."""
    parameters = {
        key: float(value)
        for key, value in spec.params.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    if window is not None:
        parameters["window"] = float(window)
    return parameters


def _spec_window(spec: MethodSpec, scenario: Scenario) -> Optional[int]:
    if spec.data == "snapshot":
        return None
    return min(spec.window or scenario.busy_length, scenario.busy_length)


def _build_estimator(spec: MethodSpec, prior: Optional[np.ndarray]):
    """Construct a spec's estimator, injecting the resolved prior (if any)."""
    params = dict(spec.params)
    if prior is not None:
        params["prior"] = prior
    return get_estimator(spec.estimator, **params)


@dataclass(frozen=True)
class _SpecOutcome:
    """Internal result of one guarded spec evaluation (picklable).

    ``vector`` is ``None`` exactly when ``failure`` is set; ``degradation``
    carries the estimator's own degradation-report dict when the method ran
    but had to fall back internally (supervised estimators).
    """

    vector: Optional[np.ndarray]
    failure: Optional[FailureReason] = None
    degradation: Optional[dict] = None


def _evaluate_spec_impl(
    spec: MethodSpec, problem: Any, prior: Optional[np.ndarray], skip_errors: bool
) -> _SpecOutcome:
    """One spec evaluation as a structured :class:`_SpecOutcome`.

    With ``skip_errors`` an estimation or solver failure becomes an outcome
    carrying a :class:`~repro.resilience.report.FailureReason` (exception
    type, message, spec, stage) instead of propagating, so sweeps can
    record *why* the method was skipped; without it the exception passes
    through unchanged (the historical contract of
    :func:`run_method_specs`).  A ``TypeError`` is only absorbed at
    construction time (params that do not fit the estimator's signature,
    the same rule ``Scenario.sweep`` applies); one raised *during*
    estimation is a bug and always propagates.
    """
    if not skip_errors:
        result = _build_estimator(spec, prior).estimate(problem)
        return _SpecOutcome(
            vector=result.vector,
            degradation=result.diagnostics.get("degradation"),
        )
    try:
        estimator = _build_estimator(spec, prior)
    except (EstimationError, TypeError) as exc:
        return _SpecOutcome(
            vector=None,
            failure=FailureReason.from_exception(
                exc, spec=spec.label, stage="construct"
            ),
        )
    try:
        result = estimator.estimate(problem)
    except (EstimationError, SolverError) as exc:
        return _SpecOutcome(
            vector=None,
            failure=FailureReason.from_exception(
                exc, spec=spec.label, stage="estimate"
            ),
        )
    return _SpecOutcome(
        vector=result.vector,
        degradation=result.diagnostics.get("degradation"),
    )


def _evaluate_spec_pooled(
    spec: MethodSpec, problems_ref: Any, problem_key: Any, prior: Optional[np.ndarray],
    skip_errors: bool,
) -> _SpecOutcome:
    """One spec evaluation inside an ``experiment.spec`` stage span.

    The shared problems (each carrying its routing matrix) arrive as a
    shared-payload ref, registered once via
    :func:`repro.parallel.share_payload`: fork workers inherit them without
    pickling anything, spawn workers receive them once per worker through
    the executor initializer — never once per spec.
    """
    problems = resolve_payload(problems_ref)
    with telemetry.span("experiment.spec", spec=spec.label):
        return _evaluate_spec_impl(spec, problems[problem_key], prior, skip_errors)


@dataclass(frozen=True)
class SpecEstimate:
    """Estimate of one method spec together with the truth it is scored against.

    Attributes
    ----------
    spec:
        The evaluated :class:`MethodSpec`.
    estimate:
        The estimated traffic matrix, or ``None`` when the spec was skipped.
    truth:
        The ground truth matching the spec's data kind (busy-period mean for
        snapshot specs, window mean for series specs).
    window:
        Effective series window, ``None`` for snapshot specs.
    error:
        Human-readable reason the spec was skipped (empty when it ran);
        kept alongside ``failure`` for backward compatibility.
    failure:
        Structured :class:`~repro.resilience.report.FailureReason`
        (exception type, message, spec label, pipeline stage), ``None``
        when the spec ran.
    degradation:
        The degradation-report dict the estimator attached to its
        diagnostics (supervised methods), ``None`` for a clean run.
    """

    spec: MethodSpec
    estimate: Optional[TrafficMatrix]
    truth: TrafficMatrix
    window: Optional[int]
    error: str = ""
    failure: Optional[FailureReason] = None
    degradation: Optional[dict] = None

    @property
    def label(self) -> str:
        """Row label of the spec."""
        return self.spec.label

    @property
    def skipped(self) -> bool:
        """Whether the spec could not run."""
        return self.estimate is None


def estimate_method_specs(
    scenario: Scenario,
    specs: Sequence[MethodSpec],
    n_jobs: Optional[int] = 1,
    skip_errors: bool = False,
    task_timeout: Optional[float] = None,
    max_resubmissions: int = 1,
) -> list[SpecEstimate]:
    """Evaluate method specs into estimate matrices (the shared spec engine).

    This is the machinery behind :func:`run_method_specs` and the planning
    layer's :func:`repro.planning.sweep.failure_sweep`: snapshot specs share
    one consistent snapshot problem, series specs share one series problem
    per distinct window, and ``prior_from`` references resolve against
    earlier specs in the list.

    The shared problems are built exactly once, and the specs are evaluated
    in dependency waves: every spec whose ``prior_from`` estimate is already
    available runs in the current wave, so independent specs never wait on
    each other.  Each wave runs through
    :func:`repro.parallel.run_supervised_tasks`: in this process with one
    job, concurrently with ``n_jobs > 1`` (or ``None`` for all cores), where
    a worker crash or a task exceeding ``task_timeout`` seconds is
    resubmitted (up to ``max_resubmissions`` times) and finally re-executed
    serially instead of aborting the batch.  The results — values and
    order — do not depend on ``n_jobs``.

    With ``skip_errors`` a failing spec yields a ``SpecEstimate`` whose
    ``estimate`` is ``None`` and whose ``failure`` carries the structured
    reason (specs whose prior source failed are skipped the same way, with
    ``stage="prior"``) instead of raising.
    """
    with telemetry.span(
        "experiment.specs", scenario=scenario.name, num_specs=len(specs)
    ):
        return _estimate_method_specs_impl(
            scenario, specs, n_jobs, skip_errors, task_timeout, max_resubmissions
        )


def _estimate_method_specs_impl(
    scenario: Scenario,
    specs: Sequence[MethodSpec],
    n_jobs: Optional[int],
    skip_errors: bool,
    task_timeout: Optional[float],
    max_resubmissions: int,
) -> list[SpecEstimate]:
    labels = [spec.label for spec in specs]
    prior_source: dict[int, int] = {}
    for position, spec in enumerate(specs):
        if spec.prior_from is None:
            continue
        earlier = [p for p in range(position) if labels[p] == spec.prior_from]
        if not earlier:
            raise EstimationError(
                f"spec {spec.label!r} references {spec.prior_from!r}, "
                "which has not run yet"
            )
        # A label resolves to its most recent earlier run.
        prior_source[position] = earlier[-1]

    snapshot_truth = scenario.busy_mean_matrix()
    snapshot_problem = None
    series_cache: dict[int, tuple[Any, Any]] = {}

    def resolve_data(spec: MethodSpec) -> tuple[Any, Any, Optional[int]]:
        nonlocal snapshot_problem
        if spec.data == "snapshot":
            if snapshot_problem is None:
                # The default problem is built from the scenario's busy-period
                # data (measured scenarios substitute the polled counters);
                # the truth stays the true busy-period mean either way.
                snapshot_problem = scenario.snapshot_problem()
            return snapshot_problem, snapshot_truth, None
        window = _spec_window(spec, scenario)
        if window not in series_cache:
            series_cache[window] = (
                scenario.series_problem(window_length=window),
                scenario.busy_series().window(0, window).mean_matrix(),
            )
        problem, truth = series_cache[window]
        return problem, truth, window

    def problem_key(spec: MethodSpec) -> tuple[str, Optional[int]]:
        return (spec.data, _spec_window(spec, scenario))

    def skipped_prior(position: int) -> _SpecOutcome:
        source = prior_source[position]
        source_failure = results[source].failure
        return _SpecOutcome(
            vector=None,
            failure=FailureReason(
                exception="PriorUnavailable",
                message=(
                    f"prior spec {specs[position].prior_from!r} was skipped: "
                    f"{source_failure.message if source_failure else 'no estimate'}"
                ),
                spec=specs[position].label,
                stage="prior",
            ),
        )

    results: dict[int, _SpecOutcome] = {}
    jobs = effective_jobs(n_jobs, len(specs), error=EstimationError)
    # The shared problems travel as one payload reference: fork workers
    # inherit them copy-on-write, spawn workers receive them once per
    # worker; waves then submit only the spec, a problem key and the prior
    # vector.  With one job every wave runs in this process.
    shared_problems = {problem_key(spec): resolve_data(spec)[0] for spec in specs}
    problems_ref = share_payload(shared_problems)
    pending = list(range(len(specs)))
    try:
        while pending:
            wave = [
                position
                for position in pending
                if prior_source.get(position, -1) in results
                or position not in prior_source
            ]
            runnable: list[int] = []
            wave_priors: dict[int, Optional[np.ndarray]] = {}
            for position in wave:
                prior = None
                if position in prior_source:
                    prior = results[prior_source[position]].vector
                    if prior is None:
                        results[position] = skipped_prior(position)
                        continue
                wave_priors[position] = prior
                runnable.append(position)
            if runnable:
                wave_results, _pool_report = run_supervised_tasks(
                    _evaluate_spec_pooled,
                    [
                        (
                            specs[position],
                            problems_ref,
                            problem_key(specs[position]),
                            wave_priors[position],
                            skip_errors,
                        )
                        for position in runnable
                    ],
                    jobs=jobs,
                    timeout=task_timeout,
                    max_resubmissions=max_resubmissions,
                )
                for position, outcome in zip(runnable, wave_results):
                    results[position] = outcome
            pending = [position for position in pending if position not in wave]
    finally:
        release_payload(problems_ref)

    estimates: list[SpecEstimate] = []
    for position, spec in enumerate(specs):
        problem, truth, window = resolve_data(spec)
        outcome = results[position]
        estimates.append(
            SpecEstimate(
                spec=spec,
                estimate=(
                    None
                    if outcome.vector is None
                    else TrafficMatrix(problem.pairs, outcome.vector)
                ),
                truth=truth,
                window=window,
                error=outcome.failure.describe() if outcome.failure else "",
                failure=outcome.failure,
                degradation=outcome.degradation,
            )
        )
    return estimates


def run_method_specs(
    scenario: Scenario,
    specs: Sequence[MethodSpec],
    n_jobs: Optional[int] = 1,
    skip_errors: bool = False,
    task_timeout: Optional[float] = None,
) -> list[ExperimentRecord]:
    """Run every method spec on ``scenario`` and record its MRE.

    Thin scoring wrapper over :func:`estimate_method_specs` (see there for
    the data-sharing and ``n_jobs`` wave semantics); the records — values
    and order — are identical between serial and parallel runs.  With
    ``skip_errors`` a failing spec becomes a record with ``NaN`` MRE and a
    structured ``failure`` instead of raising.
    """
    records: list[ExperimentRecord] = []
    for result in estimate_method_specs(
        scenario,
        specs,
        n_jobs=n_jobs,
        skip_errors=skip_errors,
        task_timeout=task_timeout,
    ):
        records.append(
            ExperimentRecord(
                scenario=scenario.name,
                method=result.label,
                mre=(
                    float("nan")
                    if result.skipped
                    else mean_relative_error(result.estimate, result.truth)
                ),
                parameters=_recorded_parameters(result.spec, result.window),
                failure=result.failure,
                degradation=result.degradation,
            )
        )
    return records


def vardi_table(
    scenario: Scenario,
    poisson_weights: Sequence[float] = (0.01, 1.0),
    window_length: int = 50,
    n_jobs: Optional[int] = 1,
) -> list[ExperimentRecord]:
    """Table 1: Vardi MRE for the given ``sigma^{-2}`` values on a K-sample window."""
    window_length = min(window_length, scenario.busy_length)
    specs = [
        MethodSpec(
            label="Vardi",
            estimator="vardi",
            params={"poisson_weight": float(weight)},
            data="series",
            window=window_length,
        )
        for weight in poisson_weights
    ]
    return run_method_specs(scenario, specs, n_jobs=n_jobs)


def method_comparison(
    scenario: Scenario,
    regularization: float = 1000.0,
    small_regularization: float = 0.01,
    fanout_window: int = 10,
    vardi_window: int = 50,
    include_vardi: bool = True,
    specs: Optional[Sequence[MethodSpec]] = None,
    n_jobs: Optional[int] = 1,
) -> list[ExperimentRecord]:
    """Table 2: best-effort MRE of every method on one scenario.

    With the default ``specs`` this reproduces the paper's Table 2 (see
    :func:`default_method_specs`); custom spec lists run any registered
    method mix without touching this runner.  ``n_jobs`` fans the specs out
    over a process pool (see :func:`run_method_specs`).
    """
    if specs is None:
        specs = default_method_specs(
            regularization=regularization,
            small_regularization=small_regularization,
            fanout_window=min(fanout_window, scenario.busy_length),
            vardi_window=min(vardi_window, scenario.busy_length),
            include_vardi=include_vardi,
        )
    return run_method_specs(scenario, specs, n_jobs=n_jobs)


def summary_table(records: Sequence[ExperimentRecord]) -> dict[str, dict[str, float]]:
    """Arrange experiment records as ``{method: {scenario: mre}}`` (Table 2 layout)."""
    table: dict[str, dict[str, float]] = {}
    for record in records:
        table.setdefault(record.method, {})[record.scenario] = record.mre
    return table


@dataclass(frozen=True)
class RobustnessRecord:
    """MRE of one method on one scenario at one measurement-noise level.

    Attributes
    ----------
    scenario:
        Scenario name.
    method:
        Registry name of the estimation method.
    jitter_std_seconds:
        SNMP response-jitter standard deviation of the collection run.
    loss_probability:
        Per-poll UDP loss probability of the collection run.
    mre:
        Mean relative error of the method's mean estimate against the true
        busy-window mean (``NaN`` when the method was skipped).
    error:
        Why the method was skipped (empty when it ran).
    failure:
        Structured skip reason (``None`` when the method ran).
    degradation:
        Degradation-report dict from the method's diagnostics
        (supervised methods), ``None`` for a clean run.
    """

    scenario: str
    method: str
    jitter_std_seconds: float
    loss_probability: float
    mre: float
    error: str = ""
    failure: Optional[FailureReason] = None
    degradation: Optional[dict] = None

    @property
    def skipped(self) -> bool:
        """Whether the method could not run at this noise level."""
        return bool(self.error)


def _robustness_cell(
    scenario: Scenario,
    jitter: float,
    loss: float,
    methods: Optional[Sequence[Union[str, tuple[str, Mapping]]]],
    window_length: Optional[int],
    num_pollers: int,
    seed: Optional[int],
    skip_errors: bool,
    fault_plan: Optional[Any] = None,
    counter_bits: int = 64,
) -> list[RobustnessRecord]:
    """One ``(scenario, jitter, loss)`` grid cell, as its own unit of work.

    Module-level so a process pool can pickle it; the serial loop calls it
    directly, which is what makes parallel and serial runs byte-identical.
    """
    with telemetry.span(
        "robustness.cell", scenario=scenario.name, jitter=float(jitter), loss=float(loss)
    ):
        return _robustness_cell_impl(
            scenario,
            jitter,
            loss,
            methods,
            window_length,
            num_pollers,
            seed,
            skip_errors,
            fault_plan,
            counter_bits,
        )


def _robustness_cell_impl(
    scenario: Scenario,
    jitter: float,
    loss: float,
    methods: Optional[Sequence[Union[str, tuple[str, Mapping]]]],
    window_length: Optional[int],
    num_pollers: int,
    seed: Optional[int],
    skip_errors: bool,
    fault_plan: Optional[Any],
    counter_bits: int,
) -> list[RobustnessRecord]:
    measured = scenario.measured(
        jitter_std_seconds=float(jitter),
        loss_probability=float(loss),
        num_pollers=num_pollers,
        seed=seed,
        fault_plan=fault_plan,
        counter_bits=counter_bits,
    )
    return [
        RobustnessRecord(
            scenario=scenario.name,
            method=sweep_record.method,
            jitter_std_seconds=float(jitter),
            loss_probability=float(loss),
            mre=sweep_record.mre,
            error=sweep_record.error,
            failure=sweep_record.failure,
            degradation=sweep_record.degradation,
        )
        for sweep_record in measured.sweep(
            methods=methods,
            window_length=window_length,
            skip_errors=skip_errors,
        )
    ]


def robustness_sweep(
    scenarios: Union[Scenario, Sequence[Scenario]],
    jitter_values: Sequence[float] = (0.0, 2.0, 10.0),
    loss_values: Sequence[float] = (0.0, 0.02, 0.1),
    methods: Optional[Sequence[Union[str, tuple[str, Mapping]]]] = None,
    window_length: Optional[int] = None,
    num_pollers: int = 3,
    seed: Optional[int] = 0,
    skip_errors: bool = True,
    n_jobs: Optional[int] = 1,
    fault_plan: Optional[Any] = None,
    counter_bits: int = 64,
    task_timeout: Optional[float] = None,
    max_resubmissions: int = 1,
) -> list[RobustnessRecord]:
    """Score estimation methods on measured data across noise levels.

    For every scenario and every ``(jitter, loss)`` combination this builds
    a measured-data view with :meth:`~repro.datasets.scenarios.Scenario.measured`
    — running the full SNMP collection pipeline over the day series — and
    sweeps the requested methods (default: every registered estimator) over
    the measured busy window, scoring each against the *true* series.  The
    result quantifies how gracefully each method degrades as the link-load
    data becomes inconsistent, the sensitivity study the paper leaves open.

    Parameters
    ----------
    scenarios:
        One scenario or a sequence of them (e.g. europe / america / abilene).
    jitter_values, loss_values:
        The measurement-noise grid (the full cross product is evaluated;
        jitter in seconds of response-time standard deviation, loss as the
        per-poll UDP loss probability).
    methods, window_length, skip_errors:
        Forwarded to :meth:`~repro.datasets.scenarios.Scenario.sweep`.
    num_pollers, seed:
        Forwarded to the collection pipeline; the same seed is reused at
        every noise level so that grid cells differ only in the noise knobs.
    n_jobs:
        Worker processes for the grid cells (``1`` = the serial loop,
        ``None`` = all cores).  Every cell is independent — same seed, own
        collection run — so the parallel records are identical to the
        serial ones, in the same grid order.
    fault_plan, counter_bits:
        Forwarded to :meth:`~repro.datasets.scenarios.Scenario.measured`:
        a :class:`~repro.resilience.faults.FaultPlan` corrupts every cell's
        collection run the same deterministic way, and ``counter_bits=32``
        collects through wrapping Counter32 counters.
    task_timeout, max_resubmissions:
        Pool supervision knobs (see
        :func:`repro.parallel.run_supervised_tasks`): per-cell timeout in
        seconds and resubmission budget before the parent re-runs a cell
        serially.
    """
    if isinstance(scenarios, Scenario):
        scenarios = [scenarios]
    cells = [
        (scenario, float(jitter), float(loss))
        for scenario in scenarios
        for jitter in jitter_values
        for loss in loss_values
    ]
    jobs = effective_jobs(n_jobs, len(cells), error=EstimationError)
    with telemetry.span("robustness.sweep", cells=len(cells), jobs=jobs):
        cell_records, _pool_report = run_supervised_tasks(
            _robustness_cell,
            [
                (
                    scenario,
                    jitter,
                    loss,
                    methods,
                    window_length,
                    num_pollers,
                    seed,
                    skip_errors,
                    fault_plan,
                    counter_bits,
                )
                for scenario, jitter, loss in cells
            ],
            jobs=jobs,
            timeout=task_timeout,
            max_resubmissions=max_resubmissions,
        )
    return [record for cell in cell_records for record in cell]


def robustness_table(
    records: Sequence[RobustnessRecord],
) -> dict[str, dict[str, dict[tuple[float, float], float]]]:
    """Arrange robustness records as ``{scenario: {method: {(jitter, loss): mre}}}``."""
    table: dict[str, dict[str, dict[tuple[float, float], float]]] = {}
    for record in records:
        table.setdefault(record.scenario, {}).setdefault(record.method, {})[
            (record.jitter_std_seconds, record.loss_probability)
        ] = record.mre
    return table
