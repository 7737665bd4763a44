"""Tests for the scenario containers and the reference data-set builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import Scenario, america_scenario, europe_scenario, small_scenario
from repro.errors import TrafficError


class TestSmallScenario:
    def test_structure(self, small_scenario_session):
        description = small_scenario_session.describe()
        assert description["num_pops"] == 6
        assert description["num_pairs"] == 30
        assert description["busy_total_traffic"] > 0

    def test_busy_window_is_busiest(self, small_scenario_session):
        busy = small_scenario_session.busy_series()
        assert len(busy) == small_scenario_session.busy_length
        busy_total = busy.total_traffic_series().sum()
        day = small_scenario_session.day_series
        # No other window of the same length carries more traffic.
        totals = day.total_traffic_series()
        window = small_scenario_session.busy_length
        best = max(
            totals[start : start + window].sum() for start in range(len(day) - window + 1)
        )
        assert busy_total == pytest.approx(best)

    def test_snapshot_problem_is_consistent(self, small_scenario_session, small_truth):
        problem = small_scenario_session.snapshot_problem(small_truth)
        assert np.allclose(
            problem.routing.link_loads(small_truth.vector), problem.link_loads
        )
        assert problem.origin_totals.tolist() == list(small_truth.origin_totals().values())
        assert problem.destination_totals.tolist() == list(
            small_truth.destination_totals().values()
        )

    def test_series_problem_shapes(self, small_scenario_session):
        problem = small_scenario_session.series_problem(window_length=5)
        assert problem.link_load_series.shape == (5, small_scenario_session.routing.num_links)
        assert problem.origin_totals_series.shape[0] == 5
        assert problem.origin_totals_series.shape[1] == len(set(p.origin for p in problem.pairs))

    def test_total_traffic_profile_normalised(self, small_scenario_session):
        _, normalized = small_scenario_session.total_traffic_profile()
        assert normalized.max() == pytest.approx(1.0)

    def test_deterministic_for_seed(self):
        first = small_scenario(seed=3, num_nodes=5, num_samples=12, busy_length=6)
        second = small_scenario(seed=3, num_nodes=5, num_samples=12, busy_length=6)
        assert np.allclose(first.day_series.as_array(), second.day_series.as_array())

    def test_invalid_busy_length_rejected(self, small_scenario_session):
        with pytest.raises(TrafficError):
            Scenario(
                name="bad",
                network=small_scenario_session.network,
                routing=small_scenario_session.routing,
                day_series=small_scenario_session.day_series,
                busy_length=1,
            )
        with pytest.raises(TrafficError):
            Scenario(
                name="bad",
                network=small_scenario_session.network,
                routing=small_scenario_session.routing,
                day_series=small_scenario_session.day_series,
                busy_length=10_000,
            )


@pytest.mark.slow
class TestReferenceScenarios:
    def test_europe_matches_paper_dimensions(self):
        scenario = europe_scenario()
        description = scenario.describe()
        assert description["num_pops"] == 12
        assert description["num_links"] == 72
        assert description["num_pairs"] == 132
        assert len(scenario.day_series) == 288

    def test_america_matches_paper_dimensions(self):
        scenario = america_scenario()
        description = scenario.describe()
        assert description["num_pops"] == 25
        assert description["num_links"] == 284
        assert description["num_pairs"] == 600

    def test_europe_demand_concentration(self):
        scenario = europe_scenario()
        ranks, cumulative = scenario.busy_mean_matrix().cumulative_distribution()
        share_at_20_percent = np.interp(0.2, ranks, cumulative)
        assert 0.7 < share_at_20_percent < 0.9

    def test_underdetermined_estimation_problem(self):
        scenario = europe_scenario()
        assert scenario.routing.rank() < scenario.routing.num_pairs


@pytest.fixture(scope="module")
def america():
    return america_scenario()


class TestSharedPairIndex:
    @pytest.mark.parametrize("scenario_name", ["america", "large_scenario_60"])
    def test_one_index_across_the_scenario(self, request, scenario_name):
        scenario = request.getfixturevalue(scenario_name)
        pairs = scenario.network.node_pairs()
        assert scenario.routing.pairs is pairs
        assert scenario.day_series.pairs is pairs
        assert all(snapshot.pairs is pairs for snapshot in scenario.day_series)
        assert scenario.busy_mean_matrix().pairs is pairs
        assert scenario.snapshot_problem().pairs is pairs
        assert scenario.series_problem(window_length=4).pairs is pairs

