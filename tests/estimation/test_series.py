"""Tests for the batched series-estimation path (``estimate_series``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import available_estimators, get_estimator
from repro.evaluation import mean_relative_error
from repro.evaluation.experiments import MethodSpec, registry_specs, run_method_specs
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


#: Params the gravity constructor does not take: a TypeError at construction.
MISFIT_PARAMS = ("gravity", {"no_such_param": 1.0})
#: A supervisor with no fallbacks and a one-step budget: fails while estimating.
STARVED_SUPERVISOR = ("supervised", {"primary": "entropy", "max_iterations": 1, "fallbacks": ()})


class TestRegistryRows:
    """Registry methods as ``"series-mean"`` rows through ``run_method_specs``."""

    def test_rows_score_registered_methods(self, scenario):
        records = run_method_specs(
            scenario,
            registry_specs(("gravity", "kruithof", "bayesian", "fanout"), window=5),
            skip_errors=True,
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
            assert record.parameters["window"] == 5.0

    def test_rows_default_to_every_registered_method(self, scenario):
        records = run_method_specs(scenario, registry_specs(window=3), skip_errors=True)
        assert [record.method for record in records] == list(available_estimators())
        ran = {record.method for record in records if not record.skipped}
        assert {"gravity", "kruithof", "bayesian", "entropy", "vardi", "fanout"} <= ran

    def test_rows_report_skips_instead_of_raising(self, scenario):
        records = run_method_specs(
            scenario, registry_specs(("generalized-gravity",), window=3), skip_errors=True
        )
        assert records[0].skipped
        assert "generalised gravity" in records[0].failure.message
        assert records[0].failure.stage == "construct"

    def test_rows_accept_parameterised_methods(self, scenario):
        records = run_method_specs(
            scenario, registry_specs((("bayesian", {"regularization": 10.0}),), window=3)
        )
        assert records[0].method == "bayesian"
        assert not records[0].skipped
        assert records[0].parameters["regularization"] == 10.0

    @pytest.mark.parametrize(
        "method",
        [name for name in available_estimators() if name != "generalized-gravity"],
    )
    def test_series_mean_row_scores_the_mean_of_estimate_series(
        self, scenario, series_problem, method
    ):
        [record] = run_method_specs(scenario, registry_specs((method,), window=WINDOW))
        truth = scenario.busy_series().window(0, WINDOW).mean_matrix()
        estimate = get_estimator(method).estimate_series(series_problem).mean_matrix()
        assert record.mre == mean_relative_error(estimate, truth)

    def test_series_mean_row_differs_from_series_row(self, scenario):
        # A "series" row estimates once from the window; a "series-mean" row
        # averages the per-snapshot estimates.  For gravity the mean of the
        # per-snapshot products is not the product of the window means.
        series, series_mean = run_method_specs(
            scenario,
            [
                MethodSpec(label=kind, estimator="gravity", data=kind, window=WINDOW)
                for kind in ("series", "series-mean")
            ],
        )
        assert series.parameters == series_mean.parameters == {"window": float(WINDOW)}
        assert series.mre != series_mean.mre

    def test_series_and_series_mean_rows_share_one_problem(self, scenario, monkeypatch):
        built = []
        series_problem = scenario.series_problem

        def counting_series_problem(window_length=None):
            built.append(window_length)
            return series_problem(window_length=window_length)

        monkeypatch.setattr(scenario, "series_problem", counting_series_problem)
        rows = [
            MethodSpec(label=kind, estimator="gravity", data=kind, window=5)
            for kind in ("series", "series-mean")
        ]
        run_method_specs(scenario, rows + list(registry_specs(("kruithof",), window=5)))
        assert built == [5]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_skip_errors_records_the_failing_stage(self, scenario):
        rows = registry_specs((MISFIT_PARAMS, STARVED_SUPERVISOR), window=4)
        records = run_method_specs(scenario, rows, skip_errors=True)
        assert [(r.failure.exception, r.failure.stage) for r in records] == [
            ("TypeError", "construct"),
            ("EstimationError", "estimate"),
        ]
        assert all(r.skipped and np.isnan(r.mre) for r in records)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "entry,error", [(MISFIT_PARAMS, TypeError), (STARVED_SUPERVISOR, EstimationError)]
    )
    def test_without_skip_errors_failures_propagate(self, scenario, entry, error):
        with pytest.raises(error):
            run_method_specs(scenario, registry_specs((entry,), window=4))

    def test_unknown_data_kind_rejected(self):
        with pytest.raises(EstimationError):
            MethodSpec(label="gravity", estimator="gravity", data="series-median")
        with pytest.raises(EstimationError):
            MethodSpec(label="gravity", estimator="gravity", data="series-mean", window=0)
