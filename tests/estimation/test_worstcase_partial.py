"""Tests for worst-case bounds and the direct-measurement combination."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import (
    DemandBounds,
    DirectMeasurementCombiner,
    EntropyEstimator,
    EstimationProblem,
    FanoutEstimator,
    SimpleGravityEstimator,
    WorstCaseBoundsEstimator,
    greedy_measurement_selection,
    largest_demand_selection,
    reduce_problem,
    select_large_pairs,
    worst_case_bounds,
)
from repro.evaluation import mean_relative_error
from repro.routing import build_routing_matrix
from repro.topology import NodePair
from repro.traffic import TrafficMatrix


@pytest.fixture
def line_setup(line_network):
    routing = build_routing_matrix(line_network)
    demands = {
        NodePair("A", "D"): 40.0,
        NodePair("A", "B"): 10.0,
        NodePair("B", "D"): 20.0,
        NodePair("D", "A"): 25.0,
        NodePair("C", "A"): 5.0,
    }
    truth = TrafficMatrix.from_network(line_network, demands)
    problem = EstimationProblem(
        routing=routing,
        link_loads=routing.link_loads(truth.vector),
        origin_totals=truth.origin_totals(),
        destination_totals=truth.destination_totals(),
    )
    return truth, problem


class TestDemandBounds:
    def test_midpoint_width_membership(self):
        bounds = DemandBounds(pair=NodePair("A", "B"), lower=2.0, upper=6.0)
        assert bounds.midpoint == 4.0
        assert bounds.width == 4.0
        assert bounds.contains(3.0)
        assert not bounds.contains(7.0)
        assert not bounds.is_exact()
        assert DemandBounds(pair=NodePair("A", "B"), lower=3.0, upper=3.0).is_exact()

    def test_invalid_bounds_rejected(self):
        with pytest.raises(EstimationError):
            DemandBounds(pair=NodePair("A", "B"), lower=-1.0, upper=1.0)
        with pytest.raises(EstimationError):
            DemandBounds(pair=NodePair("A", "B"), lower=5.0, upper=1.0)


class TestWorstCaseBounds:
    def test_bounds_contain_truth(self, line_setup):
        truth, problem = line_setup
        for bounds in worst_case_bounds(problem):
            assert bounds.contains(truth.demand(bounds.pair), tolerance=1e-4)

    def test_bounds_without_edge_totals_are_looser(self, line_setup):
        truth, problem = line_setup
        tight = worst_case_bounds(problem, use_edge_totals=True)
        loose = worst_case_bounds(problem, use_edge_totals=False)
        tight_width = sum(b.width for b in tight)
        loose_width = sum(b.width for b in loose)
        assert tight_width <= loose_width + 1e-6

    def test_subset_of_pairs(self, line_setup):
        truth, problem = line_setup
        subset = [NodePair("A", "D"), NodePair("B", "D")]
        bounds = worst_case_bounds(problem, pairs=subset)
        assert [b.pair for b in bounds] == subset

    def test_estimator_reports_bounds_in_diagnostics(self, line_setup):
        truth, problem = line_setup
        result = WorstCaseBoundsEstimator().estimate(problem)
        assert result.diagnostics["num_bounded"] == problem.num_pairs
        lower = result.diagnostics["lower_bounds"]
        upper = result.diagnostics["upper_bounds"]
        assert np.all(lower <= upper + 1e-9)
        assert np.allclose(result.vector, 0.5 * (lower + upper))
        # Two LPs per pair at most, and every bound certified.
        assert 0 < result.diagnostics["iterations"] <= 2 * problem.num_pairs
        assert result.diagnostics["bound_gap"] <= 1e-9
        assert result.diagnostics["converged"] is True

    def test_midpoint_prior_reasonable(self, line_setup):
        truth, problem = line_setup
        result = WorstCaseBoundsEstimator().estimate(problem)
        assert mean_relative_error(result.estimate, truth) < 1.0


class TestUnboundedPairFallback:
    def test_unselected_pairs_get_even_residual_split(self, line_setup):
        truth, problem = line_setup
        subset = [NodePair("A", "D"), NodePair("B", "D")]
        result = WorstCaseBoundsEstimator(pairs=subset).estimate(problem)
        bounded = {problem.pairs.index(pair) for pair in subset}
        unbounded = [idx for idx in range(problem.num_pairs) if idx not in bounded]
        assert result.diagnostics["num_fallback"] == len(unbounded)
        share = result.diagnostics["fallback_share"]
        assert share > 0
        for idx in unbounded:
            assert result.vector[idx] == pytest.approx(share)
            # No bound was computed for the fallback pairs.
            assert result.diagnostics["lower_bounds"][idx] == 0.0
            assert np.isnan(result.diagnostics["upper_bounds"][idx])

    def test_fallback_share_is_residual_over_unbounded(self, line_setup):
        truth, problem = line_setup
        subset = [NodePair("A", "D")]
        result = WorstCaseBoundsEstimator(pairs=subset).estimate(problem)
        midpoint_total = sum(
            result.vector[problem.pairs.index(pair)] for pair in subset
        )
        residual = max(0.0, problem.total_traffic() - midpoint_total)
        expected = residual / (problem.num_pairs - len(subset))
        assert result.diagnostics["fallback_share"] == pytest.approx(expected)

    def test_full_selection_has_no_fallback(self, line_setup):
        truth, problem = line_setup
        result = WorstCaseBoundsEstimator().estimate(problem)
        assert result.diagnostics["num_fallback"] == 0
        assert result.diagnostics["fallback_share"] == 0.0


class TestLargeDemandSelection:
    def test_select_large_pairs_defaults_to_all(self, line_setup):
        truth, problem = line_setup
        assert select_large_pairs(problem) == list(problem.pairs)

    def test_max_pairs_truncates_by_combinatorial_cap(self, line_setup):
        truth, problem = line_setup
        selected = select_large_pairs(problem, max_pairs=3)
        assert len(selected) == 3
        # The selected pairs must include the largest demand (A->D, 40.0).
        assert NodePair("A", "D") in selected

    def test_top_fraction(self, line_setup):
        truth, problem = line_setup
        selected = select_large_pairs(problem, top_fraction=0.5)
        assert len(selected) == max(1, round(0.5 * problem.num_pairs))

    def test_estimator_subset_selection_runs(self, line_setup):
        truth, problem = line_setup
        result = WorstCaseBoundsEstimator(max_pairs=3).estimate(problem)
        assert result.diagnostics["num_bounded"] == 3
        assert result.diagnostics["num_fallback"] == problem.num_pairs - 3
        # Point estimate stays sane with the subset + fallback combination.
        assert mean_relative_error(result.estimate, truth) < 2.0

    def test_invalid_selection_parameters(self, line_setup):
        with pytest.raises(EstimationError):
            WorstCaseBoundsEstimator(max_pairs=0)
        with pytest.raises(EstimationError):
            WorstCaseBoundsEstimator(top_fraction=0.0)
        with pytest.raises(EstimationError):
            WorstCaseBoundsEstimator(top_fraction=1.5)


class TestReduceProblem:
    def test_measured_contribution_removed(self, line_setup):
        truth, problem = line_setup
        measured = {NodePair("A", "D"): truth.demand(NodePair("A", "D"))}
        reduced = reduce_problem(problem, measured)
        assert reduced.num_pairs == problem.num_pairs - 1
        assert NodePair("A", "D") not in reduced.pairs
        # The remaining system stays consistent with the unmeasured demands.
        remaining = np.array(
            [truth.demand(pair) for pair in reduced.pairs]
        )
        assert np.allclose(reduced.routing.link_loads(remaining), reduced.link_loads, atol=1e-9)

    def test_edge_totals_adjusted(self, line_setup):
        truth, problem = line_setup
        pair = NodePair("A", "D")
        reduced = reduce_problem(problem, {pair: truth.demand(pair)})
        origins, destinations, _, _ = problem.pair_positions()
        reduced_origins, reduced_destinations, _, _ = reduced.pair_positions()
        assert reduced.origin_totals[reduced_origins.index("A")] == pytest.approx(
            problem.origin_totals[origins.index("A")] - truth.demand(pair)
        )
        assert reduced.destination_totals[reduced_destinations.index("D")] == pytest.approx(
            problem.destination_totals[destinations.index("D")] - truth.demand(pair)
        )

    def test_empty_measurement_returns_same_problem(self, line_setup):
        _, problem = line_setup
        assert reduce_problem(problem, {}) is problem

    def test_unknown_pair_rejected(self, line_setup):
        _, problem = line_setup
        with pytest.raises(EstimationError):
            reduce_problem(problem, {NodePair("X", "Y"): 1.0})

    def test_negative_measurement_rejected(self, line_setup):
        _, problem = line_setup
        with pytest.raises(EstimationError):
            reduce_problem(problem, {NodePair("A", "D"): -1.0})


class TestDirectMeasurementCombiner:
    def test_measured_values_pass_through(self, line_setup):
        truth, problem = line_setup
        pair = NodePair("A", "D")
        combiner = DirectMeasurementCombiner(
            EntropyEstimator(regularization=1000.0), {pair: truth.demand(pair)}
        )
        result = combiner.estimate(problem)
        assert result.estimate.demand(pair) == pytest.approx(truth.demand(pair))
        assert result.method == "entropy+direct"

    def test_measuring_all_pairs_returns_truth(self, line_setup):
        truth, problem = line_setup
        combiner = DirectMeasurementCombiner(SimpleGravityEstimator(), truth.to_mapping())
        result = combiner.estimate(problem)
        assert np.allclose(result.vector, truth.vector)

    def test_error_decreases_with_measurements(self, line_setup):
        truth, problem = line_setup
        estimator = EntropyEstimator(regularization=1000.0)
        baseline = mean_relative_error(estimator.estimate(problem).estimate, truth)

        def metric(estimate):
            return mean_relative_error(estimate, truth)

        history = greedy_measurement_selection(problem, truth, estimator, metric, 2)
        assert len(history) == 2
        assert history[0][1] <= baseline + 1e-9
        assert history[1][1] <= history[0][1] + 1e-9

    def test_fanout_counts_a_measured_demand_once(self):
        # The measured demand leaves the totals series too, so the fanout
        # fit spreads only the unmeasured ingress over the origin's pairs.
        from repro.datasets import europe_scenario

        scenario = europe_scenario()
        problem = scenario.series_problem(window_length=6)
        pair = NodePair("AMS", "LON")
        measured = {pair: scenario.busy_series().window(0, 6).mean_matrix().demand(pair)}
        result = DirectMeasurementCombiner(FanoutEstimator(), measured).estimate(problem)
        origins, _, origin_codes, _ = problem.pair_positions()
        origin = origins.index("AMS")
        ingress = result.vector[origin_codes == origin].sum()
        window_mean = problem.origin_totals_series[:, origin].mean()
        assert ingress == pytest.approx(window_mean, rel=1e-6)

    def test_largest_demand_selection_returns_history(self, line_setup):
        truth, problem = line_setup
        estimator = EntropyEstimator(regularization=1000.0)

        def metric(estimate):
            return mean_relative_error(estimate, truth)

        history = largest_demand_selection(problem, truth, estimator, metric, 3)
        assert len(history) == 3
        # The strategy measures the largest estimated demands first.
        assert history[0][0] in truth.top_demands(3)

    def test_selection_validation(self, line_setup):
        truth, problem = line_setup
        estimator = EntropyEstimator(regularization=1000.0)
        with pytest.raises(EstimationError):
            greedy_measurement_selection(problem, truth, estimator, lambda e: 0.0, 0)
        with pytest.raises(EstimationError):
            largest_demand_selection(problem, truth, estimator, lambda e: 0.0, 0)
