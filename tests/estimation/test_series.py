"""Tests for the batched series-estimation path (``estimate_series``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import get_estimator
from repro.optimize.nnls import nnls_active_set, nnls_normal_equations_batch

WINDOW = 8


@pytest.fixture(scope="module")
def scenario():
    from repro.datasets import small_scenario

    return small_scenario(seed=11, num_nodes=6, busy_length=20, num_samples=60)


@pytest.fixture(scope="module")
def series_problem(scenario):
    return scenario.series_problem(window_length=WINDOW)


def per_snapshot_loop(estimator, problem):
    """The reference semantics every batched override must reproduce."""
    return np.stack(
        [
            estimator.estimate(problem.at_snapshot(index)).vector
            for index in range(problem.series.shape[0])
        ]
    )


class TestBatchedOverridesMatchLoop:
    @pytest.mark.parametrize("method,params", [
        ("gravity", {}),
        ("kruithof", {}),
        ("kruithof", {"prior": "gravity"}),
        ("bayesian", {"regularization": 1000.0, "prior": "gravity"}),
        ("bayesian", {"regularization": 10.0, "prior": "uniform"}),
    ])
    def test_batch_equals_per_snapshot_estimates(self, series_problem, method, params):
        estimator = get_estimator(method, **params)
        batched = estimator.estimate_series(series_problem)
        loop = per_snapshot_loop(estimator, series_problem)
        scale = max(float(loop.max()), 1.0)
        assert batched.estimates.shape == loop.shape
        np.testing.assert_allclose(batched.estimates, loop, atol=1e-6 * scale)

    def test_generic_fallback_matches_loop_by_construction(self, series_problem):
        # The worst-case bounds have no batched override and no warm start,
        # so their series runs the unseeded generic loop.
        estimator = get_estimator("worst-case-bounds")
        batched = estimator.estimate_series(series_problem)
        loop = per_snapshot_loop(estimator, series_problem)
        np.testing.assert_allclose(batched.estimates, loop, atol=1e-9)
        assert batched.diagnostics["batched"] is False

    def test_entropy_warm_started_series_matches_loop(self, series_problem):
        # The dual kernel starts every solve from y = 0, so the series is
        # the cold loop exactly.
        estimator = get_estimator("entropy", regularization=100.0)
        batched = estimator.estimate_series(series_problem)
        loop = per_snapshot_loop(estimator, series_problem)
        np.testing.assert_array_equal(batched.estimates, loop)

    def test_bayesian_explicit_prior_batches(self, series_problem):
        prior = np.full(series_problem.num_pairs, 10.0)
        estimator = get_estimator("bayesian", regularization=50.0, prior=prior)
        batched = estimator.estimate_series(series_problem)
        loop = per_snapshot_loop(estimator, series_problem)
        np.testing.assert_allclose(batched.estimates, loop, atol=1e-6 * float(loop.max()))


class TestWindowLevelMethods:
    def test_vardi_batch_repeats_the_window_estimate(self, series_problem):
        estimator = get_estimator("vardi", poisson_weight=0.01)
        batched = estimator.estimate_series(series_problem)
        single = estimator.estimate(series_problem).vector
        assert len(batched) == WINDOW
        for index in range(WINDOW):
            np.testing.assert_allclose(batched.estimates[index], single)

    def test_fanout_batch_scales_by_snapshot_ingress(self, series_problem):
        estimator = get_estimator("fanout")
        batched = estimator.estimate_series(series_problem)
        # Averaging the per-snapshot estimates recovers the window estimate.
        window = estimator.estimate(series_problem).vector
        np.testing.assert_allclose(batched.estimates.mean(axis=0), window, atol=1e-8)
        # And the snapshots genuinely differ (they track the ingress totals).
        assert not np.allclose(batched.estimates[0], batched.estimates[-1])


class TestSeriesResultContainer:
    def test_container_views(self, series_problem):
        batched = get_estimator("gravity").estimate_series(series_problem)
        assert batched.num_snapshots == WINDOW
        assert batched.matrix(0).pairs == series_problem.pairs
        np.testing.assert_allclose(
            batched.mean_matrix().vector, batched.estimates.mean(axis=0)
        )
        assert batched.result(1).method == "gravity"
        with pytest.raises(EstimationError):
            batched.matrix(WINDOW)

    def test_snapshot_only_problem_has_no_series(self, scenario):
        problem = scenario.snapshot_problem()
        with pytest.raises(EstimationError):
            get_estimator("gravity").estimate_series(problem)

    def test_at_snapshot_bounds_checked(self, series_problem):
        with pytest.raises(EstimationError):
            series_problem.at_snapshot(WINDOW)


class TestNormalEquationsBatchSolver:
    def test_matches_active_set_on_random_problems(self):
        rng = np.random.default_rng(5)
        A = rng.random((40, 25))
        B = rng.normal(size=(40, 12)) * 10.0
        gram = A.T @ A + 1e-6 * np.eye(25)
        solutions, converged = nnls_normal_equations_batch(gram, A.T @ B)
        assert converged.all()
        for col in range(B.shape[1]):
            reference = nnls_active_set(
                np.vstack([A, np.sqrt(1e-6) * np.eye(25)]),
                np.concatenate([B[:, col], np.zeros(25)]),
            ).x
            np.testing.assert_allclose(solutions[:, col], reference, atol=1e-6)

    def test_single_rhs_shape(self):
        gram = np.eye(3)
        solution, converged = nnls_normal_equations_batch(gram, np.array([1.0, -2.0, 3.0]))
        np.testing.assert_allclose(solution, [1.0, 0.0, 3.0])
        assert converged.shape == (1,)


class TestScenarioSweep:
    def test_sweep_scores_registered_methods(self, scenario):
        records = scenario.sweep(
            methods=("gravity", "kruithof", "bayesian", "fanout"), window_length=5
        )
        assert [record.method for record in records] == [
            "gravity",
            "kruithof",
            "bayesian",
            "fanout",
        ]
        for record in records:
            assert not record.skipped
            assert np.isfinite(record.mre)
            assert record.per_snapshot_mre.shape == (5,)

    def test_sweep_default_covers_every_registered_method(self, scenario):
        from repro.estimation import available_estimators

        records = scenario.sweep(window_length=3)
        assert [record.method for record in records] == list(available_estimators())
        ran = {record.method for record in records if not record.skipped}
        assert {"gravity", "kruithof", "bayesian", "entropy", "vardi", "fanout"} <= ran

    def test_sweep_reports_skips_instead_of_raising(self, scenario):
        records = scenario.sweep(methods=("generalized-gravity",), window_length=3)
        assert records[0].skipped
        assert "generalised gravity" in records[0].error

    def test_sweep_accepts_parameterised_methods(self, scenario):
        records = scenario.sweep(
            methods=(("bayesian", {"regularization": 10.0}),), window_length=3
        )
        assert records[0].method == "bayesian"
        assert not records[0].skipped
