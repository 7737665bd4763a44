"""Integration tests spanning topology -> routing -> traffic -> measurement -> estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import small_scenario
from repro.estimation import (
    BayesianEstimator,
    DirectMeasurementCombiner,
    EntropyEstimator,
    EstimationProblem,
    FanoutEstimator,
    SimpleGravityEstimator,
    VardiEstimator,
    WorstCaseBoundsEstimator,
)
from repro.evaluation import demand_ranking_correlation, mean_relative_error
from repro.measurement import DistributedCollector, netflow_smoothed_series
from repro.routing import CSPFRouter, LSPMesh, build_routing_matrix
from repro.topology import random_backbone
from repro.traffic import (
    SyntheticTrafficConfig,
    SyntheticTrafficModel,
    base_demand_matrix,
    european_profile,
)


class TestMeasurementToEstimationPipeline:
    """The full paper pipeline: LSP mesh -> SNMP collection -> estimation."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        network = random_backbone(6, avg_degree=3.0, seed=41)
        config = SyntheticTrafficConfig(total_traffic_mbps=4_000.0, gravity_distortion=0.6)
        base = base_demand_matrix(network, config, seed=41)
        model = SyntheticTrafficModel(network, base, european_profile(), config, seed=42)
        series = model.generate_series(12, start_time_seconds=18 * 3600)

        # Signal the LSP mesh with CSPF using the base matrix as bandwidth values.
        router = CSPFRouter(network)
        mesh = LSPMesh(network, bandwidths=base.to_mapping())
        paths = router.signal_mesh(mesh)
        routing = build_routing_matrix(network, paths=paths)

        collector = DistributedCollector(routing, num_pollers=2, jitter_std_seconds=0.0, seed=43)
        collector.collect(series)
        return network, routing, series, collector

    def test_collected_matrix_matches_true_series(self, pipeline):
        _, _, series, collector = pipeline
        measured = collector.measured_traffic_series()
        assert np.allclose(measured.as_array(), series.as_array(), rtol=1e-3, atol=1e-2)

    def test_collected_link_loads_consistent_with_routing(self, pipeline):
        _, routing, series, collector = pipeline
        loads = collector.measured_link_loads()
        expected = np.stack([routing.link_loads(snapshot.vector) for snapshot in series])
        assert np.allclose(loads, expected, rtol=1e-3, atol=1e-2)

    def test_estimation_from_collected_data(self, pipeline):
        """Estimate from the *measured* (collected) data, not the ground truth."""
        _, routing, series, collector = pipeline
        measured = collector.measured_traffic_series()
        truth = series.mean_matrix()
        mean_measured = measured.mean_matrix()
        problem = EstimationProblem(
            routing=routing,
            link_loads=collector.measured_link_loads().mean(axis=0),
            origin_totals=mean_measured.origin_totals(),
            destination_totals=mean_measured.destination_totals(),
        )
        estimate = EntropyEstimator(regularization=1000.0).estimate(problem).estimate
        gravity = SimpleGravityEstimator().estimate(problem).estimate
        assert mean_relative_error(estimate, truth) < mean_relative_error(gravity, truth)


class TestScenarioLevelComparisons:
    """Qualitative findings of the paper reproduced on a small scenario."""

    @pytest.fixture(scope="class")
    def scenario(self):
        # A hot-spot-heavy traffic matrix (strong gravity violation), which is
        # where the paper's qualitative ordering of the methods shows clearly.
        return small_scenario(
            seed=51, num_nodes=7, busy_length=30, num_samples=80, gravity_distortion=1.2
        )

    @pytest.fixture(scope="class")
    def snapshot(self, scenario):
        truth = scenario.busy_mean_matrix()
        return truth, scenario.snapshot_problem(truth)

    def test_regularized_methods_beat_priors(self, snapshot):
        truth, problem = snapshot
        gravity = mean_relative_error(SimpleGravityEstimator().estimate(problem).estimate, truth)
        entropy = mean_relative_error(
            EntropyEstimator(regularization=1000.0).estimate(problem).estimate, truth
        )
        bayes = mean_relative_error(
            BayesianEstimator(regularization=1000.0).estimate(problem).estimate, truth
        )
        assert entropy < gravity
        assert bayes < gravity

    def test_wcb_prior_beats_gravity_prior(self, snapshot):
        truth, problem = snapshot
        wcb = WorstCaseBoundsEstimator().estimate(problem)
        gravity = SimpleGravityEstimator().estimate(problem)
        assert mean_relative_error(wcb.estimate, truth) < mean_relative_error(
            gravity.estimate, truth
        )

    def test_estimators_rank_demands_accurately(self, snapshot):
        """The paper's remark that methods identify the large demands reliably."""
        truth, problem = snapshot
        true_top = set(truth.top_demands(10))
        for estimator in (
            SimpleGravityEstimator(),
            EntropyEstimator(regularization=1000.0),
            BayesianEstimator(prior="gravity"),
        ):
            estimate = estimator.estimate(problem).estimate
            assert demand_ranking_correlation(estimate, truth) > 0.4
            # Most of the ten largest true demands appear among the ten largest estimates.
            assert len(set(estimate.top_demands(10)) & true_top) >= 6

    def test_vardi_worse_than_regularized_on_non_poisson_data(self, scenario):
        truth = scenario.busy_mean_matrix()
        problem = scenario.snapshot_problem(truth)
        entropy = mean_relative_error(
            EntropyEstimator(regularization=1000.0).estimate(problem).estimate, truth
        )
        series_problem = scenario.series_problem(window_length=30)
        series_truth = scenario.busy_series().window(0, 30).mean_matrix()
        vardi = mean_relative_error(
            VardiEstimator(poisson_weight=1.0).estimate(series_problem).estimate, series_truth
        )
        assert vardi > entropy

    def test_direct_measurements_reduce_error(self, snapshot):
        truth, problem = snapshot
        estimator = EntropyEstimator(regularization=1000.0)
        baseline = mean_relative_error(estimator.estimate(problem).estimate, truth)
        # Measuring a handful of the largest demands collapses the MRE (Figure 16).
        measured_pairs = truth.top_demands(10)
        combiner = DirectMeasurementCombiner(
            estimator, {pair: truth.demand(pair) for pair in measured_pairs}
        )
        improved = mean_relative_error(combiner.estimate(problem).estimate, truth)
        assert improved < baseline
        assert improved < 0.1

    def test_netflow_aggregation_biases_variance_low(self, scenario):
        """The measurement-methodology argument motivating the paper's data set."""
        busy = scenario.busy_series()
        smoothed = netflow_smoothed_series(busy, mean_flow_duration_seconds=3600.0, seed=5)
        true_variance = busy.demand_variances().sum()
        smoothed_variance = smoothed.demand_variances().sum()
        assert smoothed_variance < true_variance
