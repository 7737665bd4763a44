"""Tests for the Bayesian, entropy, Kruithof/KL-projection and tomogravity estimators."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import (
    BayesianEstimator,
    EntropyEstimator,
    EstimationProblem,
    KLProjectionEstimator,
    KruithofEstimator,
    TomogravityEstimator,
)
from repro.evaluation import mean_relative_error
from repro.routing import RoutingMatrix, build_routing_matrix
from repro.topology import NodePair
from repro.traffic import TrafficMatrix


@pytest.fixture
def line_problem(line_network):
    """An under-determined problem on the line network with known truth."""
    routing = build_routing_matrix(line_network)
    demands = {
        NodePair("A", "D"): 50.0,
        NodePair("A", "C"): 20.0,
        NodePair("B", "D"): 10.0,
        NodePair("B", "C"): 5.0,
        NodePair("D", "A"): 30.0,
        NodePair("C", "A"): 15.0,
        NodePair("A", "B"): 8.0,
        NodePair("B", "A"): 4.0,
        NodePair("C", "D"): 6.0,
        NodePair("D", "C"): 3.0,
        NodePair("C", "B"): 2.0,
        NodePair("D", "B"): 1.0,
    }
    truth = TrafficMatrix.from_network(line_network, demands)
    problem = EstimationProblem(
        routing=routing,
        link_loads=routing.link_loads(truth.vector),
        origin_totals=truth.origin_totals(),
        destination_totals=truth.destination_totals(),
    )
    return truth, problem


class TestBayesian:
    def test_large_regularization_fits_link_loads(self, line_problem):
        truth, problem = line_problem
        result = BayesianEstimator(regularization=1e6, prior="gravity").estimate(problem)
        residual = np.linalg.norm(problem.routing.link_loads(result.vector) - problem.snapshot)
        assert residual < 1e-3 * np.linalg.norm(problem.snapshot)

    def test_small_regularization_returns_prior(self, line_problem):
        truth, problem = line_problem
        prior = np.full(problem.num_pairs, 5.0)
        result = BayesianEstimator(regularization=1e-8, prior=prior).estimate(problem)
        assert np.allclose(result.vector, prior, rtol=1e-3, atol=1e-3)

    def test_exact_recovery_when_prior_is_truth(self, line_problem):
        truth, problem = line_problem
        result = BayesianEstimator(regularization=1.0, prior=truth.vector).estimate(problem)
        assert np.allclose(result.vector, truth.vector, atol=1e-4)

    def test_regularization_must_be_positive(self):
        with pytest.raises(EstimationError):
            BayesianEstimator(regularization=0.0)

    def test_prior_shape_checked(self, line_problem):
        _, problem = line_problem
        with pytest.raises(EstimationError):
            BayesianEstimator(prior=np.ones(3)).estimate(problem)
        with pytest.raises(EstimationError):
            BayesianEstimator(prior=-np.ones(problem.num_pairs)).estimate(problem)

    def test_diagnostics_reported(self, line_problem):
        _, problem = line_problem
        result = BayesianEstimator(regularization=10.0).estimate(problem)
        assert "residual_norm" in result.diagnostics
        assert "prior_distance" in result.diagnostics


class TestEntropy:
    def test_large_regularization_fits_link_loads(self, line_problem):
        truth, problem = line_problem
        result = EntropyEstimator(regularization=1e5, prior="gravity").estimate(problem)
        residual = np.linalg.norm(problem.routing.link_loads(result.vector) - problem.snapshot)
        assert residual < 1e-2 * np.linalg.norm(problem.snapshot)

    def test_small_regularization_returns_prior(self, line_problem):
        _, problem = line_problem
        prior = np.full(problem.num_pairs, 7.0)
        result = EntropyEstimator(regularization=1e-8, prior=prior).estimate(problem)
        assert np.allclose(result.vector, prior, rtol=1e-2)

    def test_zero_prior_entries_stay_zero(self, line_problem):
        _, problem = line_problem
        prior = np.full(problem.num_pairs, 5.0)
        prior[0] = 0.0
        result = EntropyEstimator(regularization=100.0, prior=prior).estimate(problem)
        assert result.vector[0] == 0.0

    def test_better_than_gravity_prior_alone(self, small_snapshot_problem, small_truth):
        from repro.estimation import SimpleGravityEstimator

        gravity_mre = mean_relative_error(
            SimpleGravityEstimator().estimate(small_snapshot_problem).estimate, small_truth
        )
        entropy_mre = mean_relative_error(
            EntropyEstimator(regularization=1000.0).estimate(small_snapshot_problem).estimate,
            small_truth,
        )
        assert entropy_mre < gravity_mre

    def test_parameter_validation(self):
        with pytest.raises(EstimationError):
            EntropyEstimator(regularization=-1.0)
        with pytest.raises(EstimationError):
            EntropyEstimator(max_iterations=0)


class TestKruithof:
    def test_matches_edge_totals(self, line_problem):
        truth, problem = line_problem
        result = KruithofEstimator(prior="uniform").estimate(problem)
        estimate = result.estimate
        for origin, total in truth.origin_totals().items():
            assert estimate.origin_totals()[origin] == pytest.approx(total, rel=1e-4)
        for destination, total in truth.destination_totals().items():
            assert estimate.destination_totals()[destination] == pytest.approx(total, rel=1e-4)

    def test_requires_edge_totals(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing, link_loads=np.ones(triangle_routing.num_links)
        )
        with pytest.raises(EstimationError):
            KruithofEstimator().estimate(problem)


def toy_problem(routing, loads):
    """A problem on an explicit routing matrix (pairs and links are labels only)."""
    routing = np.asarray(routing, dtype=float)
    pairs = [NodePair("A", f"N{index}") for index in range(routing.shape[1])]
    links = [f"L{index}" for index in range(routing.shape[0])]
    return EstimationProblem(
        routing=RoutingMatrix(routing, links, pairs), link_loads=np.asarray(loads, dtype=float)
    )


class TestKLProjection:
    def test_projects_onto_consistent_constraints(self):
        # Two demands sharing one link plus one individually measured demand.
        problem = toy_problem([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [10.0, 3.0])
        result = KLProjectionEstimator(prior=np.array([2.0, 2.0, 5.0])).estimate(problem)
        assert result.diagnostics["converged"]
        # The prior split was 50/50, so the projection keeps it.
        np.testing.assert_allclose(result.vector, [5.0, 5.0, 3.0], rtol=1e-6)

    def test_respects_prior_proportions(self):
        problem = toy_problem([[1.0, 1.0]], [8.0])
        result = KLProjectionEstimator(prior=np.array([3.0, 1.0])).estimate(problem)
        np.testing.assert_allclose(result.vector, [6.0, 2.0], rtol=1e-6)

    def test_zero_prior_entries_stay_zero(self):
        problem = toy_problem([[1.0, 1.0]], [4.0])
        result = KLProjectionEstimator(prior=np.array([0.0, 1.0])).estimate(problem)
        assert result.vector[0] == 0.0
        assert result.vector[1] == pytest.approx(4.0, rel=1e-6)

    def test_prior_validation(self):
        problem = toy_problem([[1.0, 1.0]], [4.0])
        with pytest.raises(EstimationError):
            KLProjectionEstimator(prior=np.ones(3)).estimate(problem)
        with pytest.raises(EstimationError):
            KLProjectionEstimator(prior=-np.ones(2)).estimate(problem)

    def test_satisfies_link_constraints(self, line_problem):
        truth, problem = line_problem
        result = KLProjectionEstimator(prior="gravity").estimate(problem)
        assert result.diagnostics["converged"]
        assert np.allclose(
            problem.routing.link_loads(result.vector), problem.snapshot, rtol=1e-6, atol=1e-6
        )

    def test_exact_prior_is_fixed_point(self, line_problem):
        truth, problem = line_problem
        result = KLProjectionEstimator(prior=truth.vector).estimate(problem)
        assert np.allclose(result.vector, truth.vector, rtol=1e-6)

    def test_is_the_entropy_fit_at_the_fixed_regularization(self, small_snapshot_problem):
        from repro.estimation.entropy import KL_PROJECTION_REGULARIZATION

        projection = KLProjectionEstimator().estimate(small_snapshot_problem)
        entropy = EntropyEstimator(
            regularization=KL_PROJECTION_REGULARIZATION, prior="gravity"
        ).estimate(small_snapshot_problem)
        np.testing.assert_array_equal(projection.vector, entropy.vector)
        assert projection.method == "kl-projection"
        assert projection.diagnostics["regularization"] == KL_PROJECTION_REGULARIZATION


class TestTomogravity:
    def test_matches_underlying_entropy_estimator(self, small_snapshot_problem):
        tomo = TomogravityEstimator(regularization=500.0).estimate(small_snapshot_problem)
        entropy = EntropyEstimator(regularization=500.0, prior="gravity").estimate(
            small_snapshot_problem
        )
        assert tomo.method == "tomogravity"
        assert np.allclose(tomo.vector, entropy.vector)

    def test_options_are_regularization_and_prior(self):
        parameters = inspect.signature(TomogravityEstimator).parameters
        assert list(parameters) == ["regularization", "prior"]
        with pytest.raises(TypeError):
            TomogravityEstimator(max_iterations=5)
