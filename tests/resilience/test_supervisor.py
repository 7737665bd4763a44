"""The supervised estimator: budgets, fallback chains, reporting.

The contract under test: whatever the chain returns is a *labelled* result
— a clean primary run carries a non-degraded report, every failure shows
up as an event, a fallback changes ``used``, each method runs once, and
total failure raises an :class:`~repro.errors.EstimationError` naming every
attempt.  Budget
exhaustion must come from the cooperative ticks inside the real solver
loops, not from a wrapper timeout.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.datasets import small_scenario
from repro.errors import BudgetExceededError, EstimationError
from repro.estimation import available_estimators, get_estimator
from repro.resilience import SolverBudget, SupervisedEstimator, budget_tick
from repro.resilience.report import degradation_from_diagnostics


@pytest.fixture(scope="module")
def problem():
    scenario = small_scenario(seed=5, num_nodes=6, busy_length=8, num_samples=16)
    return scenario.snapshot_problem()


@pytest.fixture(scope="module")
def series_problem():
    scenario = small_scenario(seed=5, num_nodes=6, busy_length=8, num_samples=16)
    return scenario.series_problem(window_length=4)


def test_registered_by_name():
    assert "supervised" in available_estimators()
    assert isinstance(get_estimator("supervised"), SupervisedEstimator)


def test_clean_run_matches_primary_and_reports_clean(problem):
    direct = get_estimator("tomogravity").estimate(problem)
    supervised = SupervisedEstimator(primary="tomogravity").estimate(problem)
    np.testing.assert_allclose(supervised.vector, direct.vector)
    assert supervised.method == "supervised"
    report = degradation_from_diagnostics(supervised.diagnostics)
    assert report is not None
    assert not report.degraded
    assert report.requested == report.used == "tomogravity"
    assert report.attempts == 1


def test_exhausted_primary_falls_back_down_the_chain(problem):
    estimator = SupervisedEstimator(
        primary="tomogravity",
        fallbacks=("gravity",),
        inject_failures=1,
    )
    with pytest.warns(RuntimeWarning):
        result = estimator.estimate(problem)
    report = degradation_from_diagnostics(result.diagnostics)
    assert report.requested == "tomogravity"
    assert report.used == "gravity"
    assert report.attempts == 2
    assert [event.stage for event in report.events] == ["estimate"]
    np.testing.assert_allclose(
        result.vector, get_estimator("gravity").estimate(problem).vector
    )


def test_iteration_budget_fires_inside_the_entropy_newton_loop(problem):
    estimator = SupervisedEstimator(
        primary="entropy",
        primary_params={"prior": "gravity"},
        fallbacks=("gravity",),
        max_iterations=2,
    )
    with pytest.warns(RuntimeWarning):
        result = estimator.estimate(problem)
    report = degradation_from_diagnostics(result.diagnostics)
    assert report.used == "gravity"
    assert any(
        event.stage == "budget" and event.kind == "BudgetExceededError"
        for event in report.events
    )


def test_budget_ticks_raise_inside_ipf_loops():
    from repro.optimize.ipf import kruithof_scaling

    rng = np.random.default_rng(0)
    matrix = rng.uniform(0.1, 1.0, size=(6, 6))
    with SolverBudget(max_iterations=1):
        with pytest.raises(BudgetExceededError):
            kruithof_scaling(
                matrix[None],
                np.arange(1.0, 7.0)[None],
                np.arange(6.0, 0.0, -1.0)[None],
                tolerance=1e-12,
            )


def test_budget_tick_is_a_noop_without_an_active_budget():
    budget_tick()  # must not raise
    budget_tick(count=1000)


def test_total_failure_raises_with_the_full_story(problem):
    estimator = SupervisedEstimator(
        primary="tomogravity", fallbacks=(), inject_failures=10
    )
    with pytest.raises(EstimationError, match="supervised estimation failed"):
        estimator.estimate(problem)


def test_unknown_fallback_is_an_event_not_a_crash(problem):
    estimator = SupervisedEstimator(
        primary="no-such-method", fallbacks=("gravity",)
    )
    with pytest.warns(RuntimeWarning):
        result = estimator.estimate(problem)
    report = degradation_from_diagnostics(result.diagnostics)
    assert report.used == "gravity"
    assert any(event.stage == "construct" for event in report.events)


def test_uncertified_primary_runs_once_then_falls_back():
    # A cold solve of the same problem fails the same way, so the chain
    # moves on after one attempt instead of re-running the primary.
    from repro.datasets import america_scenario

    snapshot = america_scenario().snapshot_problem()
    estimator = SupervisedEstimator(
        primary="kruithof", primary_params={"max_iterations": 2}, require_convergence=True
    )
    with pytest.warns(RuntimeWarning, match="supervised estimation degraded"):
        result = estimator.estimate(snapshot)
    report = degradation_from_diagnostics(result.diagnostics)
    assert report.used == "gravity" and report.attempts == 2
    assert [event.detail for event in report.events] == [
        "kruithof: EstimationError: method 'kruithof' reported converged=False"
    ]
    np.testing.assert_array_equal(
        result.vector, get_estimator("gravity").estimate(snapshot).vector
    )


def test_result_without_a_converged_flag_is_served(series_problem):
    # ``converged`` is the one flag require_convergence reads; the closed-form
    # gravity model reports none, so its result is served, not sent down the
    # chain.
    estimator = SupervisedEstimator(
        primary="gravity", fallbacks=("tomogravity",), require_convergence=True
    )
    result = estimator.estimate_series(series_problem)
    direct = get_estimator("gravity").estimate_series(series_problem)
    assert "converged" not in direct.diagnostics
    report = degradation_from_diagnostics(result.diagnostics)
    assert report.used == "gravity" and not report.degraded and report.attempts == 1


def test_estimate_series_walks_the_same_chain(series_problem):
    estimator = SupervisedEstimator(
        primary="tomogravity", fallbacks=("gravity",), inject_failures=1
    )
    with pytest.warns(RuntimeWarning):
        result = estimator.estimate_series(series_problem)
    report = degradation_from_diagnostics(result.diagnostics)
    assert report.used == "gravity"
    direct = get_estimator("gravity").estimate_series(series_problem)
    np.testing.assert_allclose(result.estimates, direct.estimates)


def test_report_round_trips_through_plain_dicts(problem):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = SupervisedEstimator(inject_failures=1).estimate(problem)
    report = degradation_from_diagnostics(result.diagnostics)
    assert report.to_dict() == result.diagnostics["degradation"]
    assert degradation_from_diagnostics({"degradation": report.to_dict()}) == report
