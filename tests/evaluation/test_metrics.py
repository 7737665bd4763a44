"""Tests for the evaluation metrics (MRE and friends)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import america_scenario
from repro.errors import EstimationError
from repro.estimation import get_estimator
from repro.evaluation import (
    demand_ranking_correlation,
    mean_relative_error,
    top_demand_threshold,
)
from repro.topology import NodePair
from repro.traffic import TrafficMatrix


PAIRS = tuple(NodePair(f"N{i}", f"N{j}") for i in range(4) for j in range(4) if i != j)


def matrix(values) -> TrafficMatrix:
    return TrafficMatrix(PAIRS, values)


class TestThreshold:
    def test_threshold_covers_requested_fraction(self):
        values = np.array([100, 80, 60, 40, 20, 10, 5, 5, 4, 3, 2, 1], dtype=float)
        truth = matrix(values)
        threshold = top_demand_threshold(truth, 0.9)
        retained = values[values >= threshold]
        assert retained.sum() >= 0.9 * values.sum()

    def test_full_fraction_returns_smallest_value(self):
        truth = matrix(np.arange(1, 13, dtype=float))
        assert top_demand_threshold(truth, 1.0) == pytest.approx(1.0)


class TestMRE:
    def test_perfect_estimate_has_zero_mre(self):
        truth = matrix(np.arange(1, 13, dtype=float))
        assert mean_relative_error(truth, truth) == pytest.approx(0.0)

    def test_uniform_overestimate(self):
        truth = matrix(np.full(12, 10.0))
        estimate = matrix(np.full(12, 15.0))
        assert mean_relative_error(estimate, truth) == pytest.approx(0.5)

    def test_only_large_demands_counted(self):
        # One dominant demand estimated perfectly; tiny demands estimated terribly.
        values = np.ones(12)
        values[0] = 1000.0
        truth = matrix(values)
        estimate_values = np.full(12, 100.0)
        estimate_values[0] = 1000.0
        estimate = matrix(estimate_values)
        assert mean_relative_error(estimate, truth, traffic_fraction=0.9) == pytest.approx(0.0)

    def test_zero_true_demands_skipped(self):
        values = np.full(12, 10.0)
        values[0] = 0.0
        estimate_values = np.full(12, 10.0)
        estimate_values[0] = 1.0
        assert mean_relative_error(matrix(estimate_values), matrix(values), threshold=0.0) == 0.0

    def test_alignment_checked(self):
        truth = matrix(np.ones(12))
        other = TrafficMatrix(PAIRS[:6], np.ones(6))
        with pytest.raises(EstimationError):
            mean_relative_error(other, truth)

    def test_explicit_threshold_overrides_fraction(self):
        truth = matrix(np.arange(1, 13, dtype=float))
        estimate = matrix(np.arange(1, 13, dtype=float) * 2.0)
        # Threshold 10 keeps only the two largest demands; both are off by 100 %.
        assert mean_relative_error(estimate, truth, threshold=10.0) == pytest.approx(1.0)
        # A threshold above every demand leaves nothing to average over.
        with pytest.raises(EstimationError):
            mean_relative_error(estimate, truth, threshold=100.0)

    def test_mre_matches_manual_computation(self):
        truth_values = np.array([100, 50, 25, 10, 1, 1, 1, 1, 1, 1, 1, 1], dtype=float)
        estimate_values = truth_values.copy()
        estimate_values[0] = 110.0  # +10 %
        estimate_values[1] = 40.0  # -20 %
        truth, estimate = matrix(truth_values), matrix(estimate_values)
        threshold = top_demand_threshold(truth, 0.9)
        manual = np.mean([0.1, 0.2, 0.0])  # demands 100, 50, 25 exceed the threshold
        assert mean_relative_error(estimate, truth, traffic_fraction=0.9) == pytest.approx(
            manual, abs=1e-9
        )


class TestOtherMetrics:
    def test_ranking_correlation_perfect_and_inverted(self):
        truth = matrix(np.arange(1, 13, dtype=float))
        assert demand_ranking_correlation(truth, truth) == pytest.approx(1.0)
        inverted = matrix(np.arange(12, 0, -1, dtype=float))
        assert demand_ranking_correlation(inverted, truth) == pytest.approx(-1.0)

    def test_alignment_checked(self):
        truth = matrix(np.ones(12))
        other = TrafficMatrix(PAIRS[:6], np.ones(6))
        with pytest.raises(EstimationError):
            demand_ranking_correlation(other, truth)


def loop_relative_errors(estimate, truth, threshold):
    """Reference: the per-pair loop the vectorised metrics replaced."""
    errors = {}
    for pair, true_value in truth:
        if true_value <= threshold or true_value <= 0:
            continue
        errors[pair] = abs(estimate.demand(pair) - true_value) / true_value
    return errors


def loop_mean_relative_error(estimate, truth, traffic_fraction=0.9):
    threshold = float(np.nextafter(top_demand_threshold(truth, traffic_fraction), 0.0))
    return float(np.mean(list(loop_relative_errors(estimate, truth, threshold).values())))


@pytest.fixture(scope="module")
def america():
    return america_scenario()


class TestVectorisedMetricsMatchTheLoop:
    @pytest.mark.parametrize("scenario_name", ["america", "large_scenario_60"])
    @pytest.mark.parametrize("method", ["gravity", "tomogravity", "bayesian"])
    def test_bit_identical_to_the_loop(self, request, scenario_name, method):
        scenario = request.getfixturevalue(scenario_name)
        truth = scenario.busy_mean_matrix()
        estimate = get_estimator(method).estimate(scenario.snapshot_problem()).estimate
        assert estimate.pairs is truth.pairs
        assert mean_relative_error(estimate, truth) == loop_mean_relative_error(estimate, truth)
        threshold = top_demand_threshold(truth, 0.5)
        assert mean_relative_error(estimate, truth, threshold=threshold) == float(
            np.mean(list(loop_relative_errors(estimate, truth, threshold).values()))
        )

