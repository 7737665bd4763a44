"""The large random-backbone scenario used by the scaling benchmarks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import large_scenario
from repro.evaluation.experiments import registry_specs, run_method_specs


@pytest.fixture(scope="module")
def scenario():
    return large_scenario(30, seed=7, num_samples=12, busy_length=8)


class TestLargeScenario:
    def test_shape_and_density(self, scenario):
        assert scenario.network.num_nodes == 30
        assert scenario.network.num_pairs == 30 * 29
        # Backbone density is a few percent.
        assert scenario.routing.density < 0.1
        assert len(scenario.day_series) == 12
        assert scenario.busy_length == 8

    def test_deterministic_for_seed(self):
        first = large_scenario(12, seed=3, num_samples=6, busy_length=4)
        second = large_scenario(12, seed=3, num_samples=6, busy_length=4)
        np.testing.assert_array_equal(
            first.day_series.as_array(), second.day_series.as_array()
        )
        other = large_scenario(12, seed=4, num_samples=6, busy_length=4)
        assert not np.array_equal(
            first.day_series.as_array(), other.day_series.as_array()
        )

    def test_topology_deterministic_for_seed(self):
        first = large_scenario(16, seed=5, num_samples=4, busy_length=2).network
        second = large_scenario(16, seed=5, num_samples=4, busy_length=2).network
        assert first.link_names == second.link_names
        assert [link.capacity_mbps for link in first.links] == [
            link.capacity_mbps for link in second.links
        ]
        assert [link.metric for link in first.links] == [
            link.metric for link in second.links
        ]

    def test_consistent_problems_and_registry_rows(self, scenario):
        problem = scenario.series_problem()
        assert problem.series.shape == (8, scenario.network.num_links)
        records = run_method_specs(
            scenario, registry_specs(("gravity", "kruithof")), skip_errors=True
        )
        by_method = {record.method: record for record in records}
        assert not by_method["gravity"].skipped
        assert not by_method["kruithof"].skipped
        assert np.isfinite(by_method["gravity"].mre)

    def test_total_traffic_scales_with_nodes(self):
        scenario = large_scenario(12, seed=3, num_samples=6, busy_length=4)
        total = scenario.busy_mean_matrix().total
        # 600 Mbit/s per PoP at the diurnal level of the sampled window.
        assert 0.1 * 600 * 12 < total < 2 * 600 * 12
