"""Tests for the time-series estimators: Vardi, Cao and fanout estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import (
    CaoEstimator,
    EstimationProblem,
    FanoutEstimator,
    VardiEstimator,
    link_load_moments,
)
from repro.evaluation import mean_relative_error
from repro.measurement import link_load_series
from repro.routing import build_routing_matrix
from repro.topology import random_backbone
from repro.traffic import (
    ScalingLaw,
    SyntheticTrafficConfig,
    SyntheticTrafficModel,
    base_demand_matrix,
    flat_profile,
    poisson_series,
)


@pytest.fixture(scope="module")
def poisson_setup():
    """A small network with a long Poisson series (Vardi's ideal conditions)."""
    network = random_backbone(5, avg_degree=3.0, seed=21)
    routing = build_routing_matrix(network)
    config = SyntheticTrafficConfig(total_traffic_mbps=60_000.0, gravity_distortion=0.8)
    mean_matrix = base_demand_matrix(network, config, seed=21)
    series = poisson_series(mean_matrix, 800, seed=22)
    loads = link_load_series(routing, series)
    return network, routing, mean_matrix, loads


class TestLinkLoadMoments:
    def test_moment_shapes(self, poisson_setup):
        _, routing, _, loads = poisson_setup
        mean, covariance = link_load_moments(loads[:100])
        assert mean.shape == (routing.num_links,)
        assert covariance.shape == (routing.num_links, routing.num_links)
        assert np.allclose(covariance, covariance.T)

    def test_needs_at_least_two_snapshots(self, poisson_setup):
        _, _, _, loads = poisson_setup
        with pytest.raises(EstimationError):
            link_load_moments(loads[:1])
        with pytest.raises(EstimationError):
            link_load_moments(loads[0])


class TestVardi:
    def test_parameter_validation(self):
        with pytest.raises(EstimationError):
            VardiEstimator(poisson_weight=2.0)
        with pytest.raises(EstimationError):
            VardiEstimator(poisson_weight=-0.1)

    def test_requires_series(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing, link_loads=np.ones(triangle_routing.num_links)
        )
        with pytest.raises(EstimationError):
            VardiEstimator().estimate(problem)

    def test_accurate_on_long_poisson_series(self, poisson_setup):
        """With enough true-Poisson samples the moment matching works (Figure 12)."""
        _, routing, mean_matrix, loads = poisson_setup
        problem = EstimationProblem(routing=routing, link_load_series=loads)
        estimate = VardiEstimator(poisson_weight=1.0).estimate(problem).estimate
        assert mean_relative_error(estimate, mean_matrix) < 0.25

    def test_error_decreases_with_window_size(self, poisson_setup):
        _, routing, mean_matrix, loads = poisson_setup
        errors = []
        for window in (30, 800):
            problem = EstimationProblem(routing=routing, link_load_series=loads[:window])
            estimate = VardiEstimator(poisson_weight=1.0).estimate(problem).estimate
            errors.append(mean_relative_error(estimate, mean_matrix))
        assert errors[1] < errors[0]

    def test_diagnostics_present(self, poisson_setup):
        _, routing, _, loads = poisson_setup
        problem = EstimationProblem(routing=routing, link_load_series=loads[:50])
        result = VardiEstimator(poisson_weight=0.5).estimate(problem)
        assert result.diagnostics["num_snapshots"] == 50
        assert "first_moment_residual" in result.diagnostics
        assert "second_moment_residual" in result.diagnostics


class TestCao:
    def test_parameter_validation(self):
        with pytest.raises(EstimationError):
            CaoEstimator(c=-1.0)
        with pytest.raises(EstimationError):
            CaoEstimator(phi=0.0)
        with pytest.raises(EstimationError):
            CaoEstimator(max_iterations=0)

    def test_improves_over_first_moment_only_start(self, poisson_setup):
        _, routing, mean_matrix, loads = poisson_setup
        problem = EstimationProblem(routing=routing, link_load_series=loads[:400])
        estimate = CaoEstimator(c=1.0, prior="uniform").estimate(problem).estimate
        assert mean_relative_error(estimate, mean_matrix) < 0.6

    def test_first_moment_consistency(self, poisson_setup):
        _, routing, _, loads = poisson_setup
        problem = EstimationProblem(routing=routing, link_load_series=loads[:200])
        result = CaoEstimator(c=1.5, prior="uniform").estimate(problem)
        mean_loads = loads[:200].mean(axis=0)
        relative = result.diagnostics["first_moment_residual"] / np.linalg.norm(mean_loads)
        assert relative < 0.05

    def test_iteration_cap_is_reported_as_not_converged(self, small_scenario_session):
        problem = small_scenario_session.series_problem(window_length=10)
        tolerance = CaoEstimator().tolerance
        capped = CaoEstimator(max_iterations=1).estimate(problem).diagnostics
        assert capped["iterations"] == 1
        assert capped["converged"] is False and capped["fixed_point_change"] >= tolerance
        default = CaoEstimator().estimate(problem).diagnostics
        assert default["converged"] is True and 0.0 <= default["fixed_point_change"] < tolerance


class TestFanout:
    @pytest.fixture(scope="class")
    def stable_fanout_setup(self):
        """A demand process with constant fanouts and varying totals."""
        network = random_backbone(6, avg_degree=3.0, seed=31)
        routing = build_routing_matrix(network)
        config = SyntheticTrafficConfig(
            total_traffic_mbps=5_000.0,
            scaling_law=ScalingLaw(phi=0.5, c=1.2),
            fanout_jitter=0.0,
        )
        base = base_demand_matrix(network, config, seed=31)
        model = SyntheticTrafficModel(network, base, flat_profile(), config, seed=32)
        series = model.generate_series(20, start_time_seconds=0.0)
        return network, routing, series

    def build_problem(self, routing, series, window):
        loads = link_load_series(routing, series.window(0, window))
        origins = tuple(dict.fromkeys(p.origin for p in series.pairs))
        totals = np.stack(
            [
                [snapshot.origin_totals()[origin] for origin in origins]
                for snapshot in series.window(0, window)
            ]
        )
        return EstimationProblem(
            routing=routing,
            link_load_series=loads,
            origin_totals_series=totals,
        )

    def test_fanouts_sum_to_one_per_origin(self, stable_fanout_setup):
        network, routing, series = stable_fanout_setup
        problem = self.build_problem(routing, series, window=5)
        result = FanoutEstimator(window_length=5).estimate(problem)
        fanouts = result.diagnostics["fanouts"]
        origins = [pair.origin for pair in routing.pairs]
        for origin in set(origins):
            mask = np.array([o == origin for o in origins])
            assert fanouts[mask].sum() == pytest.approx(1.0, abs=1e-3)

    def test_fanout_recovery_improves_with_window(self, stable_fanout_setup):
        """More snapshots pin the (constant) fanout vector down more accurately."""
        network, routing, series = stable_fanout_setup
        true_fanouts = series.mean_matrix().fanout_vector()
        errors = []
        for window in (1, 20):
            problem = self.build_problem(routing, series, window)
            result = FanoutEstimator(window_length=window).estimate(problem)
            errors.append(float(np.linalg.norm(result.diagnostics["fanouts"] - true_fanouts)))
        assert errors[1] < errors[0]

    def test_requires_series_and_totals(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing, link_loads=np.ones(triangle_routing.num_links)
        )
        with pytest.raises(EstimationError):
            FanoutEstimator().estimate(problem)
        series_only = EstimationProblem(
            routing=triangle_routing,
            link_load_series=np.ones((3, triangle_routing.num_links)),
        )
        with pytest.raises(EstimationError):
            FanoutEstimator().estimate(series_only)

    def test_window_longer_than_series_rejected(self, stable_fanout_setup):
        network, routing, series = stable_fanout_setup
        problem = self.build_problem(routing, series, window=5)
        with pytest.raises(EstimationError):
            FanoutEstimator(window_length=50).estimate(problem)

    def test_invalid_window_rejected(self):
        with pytest.raises(EstimationError):
            FanoutEstimator(window_length=0)
