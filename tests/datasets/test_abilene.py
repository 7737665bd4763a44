"""Tests for the Abilene scenario and its real-topology generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import abilene_scenario
from repro.evaluation.experiments import registry_specs, run_method_specs
from repro.topology import ABILENE_CITIES, abilene_backbone


@pytest.fixture(scope="module")
def scenario():
    return abilene_scenario(busy_length=20)


class TestAbileneBackbone:
    def test_real_topology_dimensions(self):
        network = abilene_backbone()
        assert network.num_nodes == 11
        assert network.num_links == 28  # fourteen bidirectional OC-192 trunks
        assert network.num_pairs == 110

    def test_topology_is_deterministic(self):
        first = abilene_backbone()
        second = abilene_backbone()
        assert first.link_names == second.link_names

    def test_all_cities_present(self):
        network = abilene_backbone()
        names = {node.name for node in network.nodes}
        assert names == {city.name for city in ABILENE_CITIES}


class TestAbileneScenario:
    def test_scenario_headline_numbers(self, scenario):
        stats = scenario.describe()
        assert stats["num_pops"] == 11.0
        assert stats["num_links"] == 28.0
        assert stats["num_pairs"] == 110.0
        assert stats["busy_total_traffic"] > 0
        # Far fewer links than pairs: strongly under-determined.
        assert stats["routing_rank"] <= 28.0

    def test_scenario_is_deterministic(self):
        first = abilene_scenario(busy_length=10)
        second = abilene_scenario(busy_length=10)
        np.testing.assert_allclose(
            first.busy_mean_matrix().vector, second.busy_mean_matrix().vector
        )

    def test_estimation_problems_are_consistent(self, scenario):
        problem = scenario.snapshot_problem()
        truth = scenario.busy_mean_matrix()
        np.testing.assert_allclose(
            problem.link_loads, scenario.routing.link_loads(truth.vector)
        )
        assert problem.origin_totals == pytest.approx(list(truth.origin_totals().values()))

    def test_methods_run_on_the_third_scenario(self, scenario):
        rows = registry_specs(("gravity", "kruithof", "bayesian"), window=4)
        records = run_method_specs(scenario, rows, skip_errors=True)
        assert all(not record.skipped for record in records)
        assert all(np.isfinite(record.mre) for record in records)
        assert {record.method for record in records} == {"gravity", "kruithof", "bayesian"}
