"""What-if engine tests: reroute parity, caching, partitions.

The load-bearing property is *parity*: :func:`repro.routing.reroute` —
which routes again only the demands whose path crossed a failed element,
with the batched next-hop kernel and the failed links masked out — must
produce exactly the routing matrix a from-scratch, per-pair re-route of
the surviving topology produces, for every failure case.  The Europe and
Abilene parity tests below are the acceptance criterion of the planning
subsystem.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.routing.shortest_path as shortest_path_module
from repro.datasets import abilene_scenario, europe_scenario
from repro.errors import RoutingError, TopologyError
from repro.planning import (
    BASELINE,
    FailureCase,
    WhatIfEngine,
    enumerate_failures,
    full_rebuild_routing,
    whatif,
)
from repro.routing import RoutingMatrix, build_routing_matrix, reroute
from repro.topology.elements import NodePair


def assert_same_csr(actual, expected, message=""):
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(
            getattr(actual.native, name), getattr(expected.native, name), err_msg=message
        )


def assert_parity(network, cases):
    """Reroute must match the from-scratch rebuild on every case."""
    base = build_routing_matrix(network)
    for case in cases:
        matrix, result = reroute(base, case.failed_links, case.failed_nodes)
        full, infeasible = full_rebuild_routing(network, case)
        assert_same_csr(matrix, full, f"matrix mismatch for {case.name}")
        assert tuple(result.infeasible) == infeasible, case.name


class TestIncrementalParity:
    def test_dumbbell_all_kinds(self, dumbbell_network):
        cases = enumerate_failures(
            dumbbell_network, kinds=("link", "link-pair", "node"), include_baseline=True
        )
        assert_parity(dumbbell_network, cases)

    def test_europe_single_link_failures(self):
        scenario = europe_scenario()
        cases = enumerate_failures(scenario.network, kinds=("link",))
        assert_parity(scenario.network, cases)

    def test_abilene_single_link_failures(self):
        scenario = abilene_scenario()
        cases = enumerate_failures(scenario.network, kinds=("link",))
        assert_parity(scenario.network, cases)

    def test_abilene_node_failures(self):
        scenario = abilene_scenario()
        cases = enumerate_failures(scenario.network, kinds=("node",))
        assert_parity(scenario.network, cases)


class TestReroute:
    def test_only_affected_pairs_rerouted(self, dumbbell_network):
        base = build_routing_matrix(dumbbell_network)
        matrix, result = reroute(base, failed_links=("A->B",))
        assert NodePair("A", "B") in result.rerouted
        # Demands inside the other triangle never touched A->B: their
        # column is the base column, bit for bit.
        assert NodePair("D", "E") not in result.rerouted
        column = base.pair_index(NodePair("D", "E"))
        np.testing.assert_array_equal(
            matrix.native[:, [column]].toarray(), base.native[:, [column]].toarray()
        )
        assert matrix.pairs is base.pairs
        assert matrix.link_names is base.link_names

    def test_bridge_failure_reports_infeasible_pairs(self, dumbbell_network):
        base = build_routing_matrix(dumbbell_network)
        matrix, result = reroute(base, failed_links=("C->D",))
        # Every left->right demand crossed C->D; the reverse direction is fine.
        left, right = {"A", "B", "C"}, {"D", "E", "F"}
        expected = {
            NodePair(a, b)
            for a in left
            for b in right
        }
        assert set(result.infeasible) == expected
        assert not result.is_feasible
        assert all(matrix.pair_column(pair).sum() == 0.0 for pair in expected)

    def test_failed_endpoint_pairs_infeasible(self, dumbbell_network):
        base = build_routing_matrix(dumbbell_network)
        _, result = reroute(base, failed_nodes=("A",))
        assert all(
            "A" in (pair.origin, pair.destination) for pair in result.infeasible
        )
        assert len(result.infeasible) == 2 * (dumbbell_network.num_nodes - 1)

    def test_infeasible_pair_has_zero_column(self, dumbbell_network):
        base = build_routing_matrix(dumbbell_network)
        matrix, result = reroute(base, failed_links=("C->D",))
        for pair in result.infeasible:
            assert matrix.pair_column(pair).sum() == 0.0

    def test_unknown_element_raises_topology_error(self, dumbbell_network, monkeypatch):
        base = build_routing_matrix(dumbbell_network)

        def no_routing(*args, **kwargs):
            raise AssertionError("routing started before the names were checked")

        monkeypatch.setattr(shortest_path_module, "_next_hop_routes", no_routing)
        with pytest.raises(TopologyError, match="X->Y"):
            reroute(base, failed_links=("A->B", "X->Y"))
        with pytest.raises(TopologyError, match="'Q'"):
            reroute(base, failed_nodes=("Q",))

    def test_base_without_network_rejected(self, dumbbell_network):
        base = build_routing_matrix(dumbbell_network)
        bare = RoutingMatrix(base.native, base.link_names, base.pairs)
        with pytest.raises(RoutingError):
            reroute(bare, failed_links=("A->B",))

    def test_failed_node_fails_its_links(self, dumbbell_network):
        base = build_routing_matrix(dumbbell_network)
        by_node, node_result = reroute(base, failed_nodes=("B",))
        incident = [
            link.name
            for link in dumbbell_network.links
            if "B" in (link.source, link.target)
        ]
        by_links, link_result = reroute(base, failed_links=incident)
        assert node_result.rerouted == link_result.rerouted
        # The links alone leave B isolated but alive: its demands are
        # disconnected, not lost to a failed endpoint, and route nowhere.
        assert node_result.infeasible == link_result.infeasible
        assert_same_csr(by_node, by_links)


class TestCsgraphFallback:
    def test_fallback_gives_identical_reroutes(self, dumbbell_network, monkeypatch):
        """Without csgraph every case, the partitioning bridge included, routes the same."""
        base = build_routing_matrix(dumbbell_network)
        cases = enumerate_failures(dumbbell_network, kinds=("link", "link-pair", "node"))
        expected = [reroute(base, case.failed_links, case.failed_nodes) for case in cases]

        def broken():
            raise ImportError("forced by test")

        monkeypatch.setattr(shortest_path_module, "_load_csgraph", broken)
        assert any(not result.is_feasible for _, result in expected)
        for case, (matrix, result) in zip(cases, expected):
            with pytest.warns(RuntimeWarning, match="falling back to the python Dijkstra sweep"):
                fallback, fallback_result = reroute(base, case.failed_links, case.failed_nodes)
            assert_same_csr(fallback, matrix, case.name)
            assert fallback_result == result, case.name


class TestWhatIfEngine:
    def test_baseline_routing_is_base_matrix(self, dumbbell_network):
        engine = WhatIfEngine(dumbbell_network)
        routing, result = engine.routing_for(BASELINE)
        assert routing is engine.base_routing
        assert result.is_feasible and not result.rerouted

    def test_case_routing_is_cached(self, dumbbell_network):
        engine = WhatIfEngine(dumbbell_network)
        case = FailureCase(name="link:A->B", kind="link", failed_links=("A->B",))
        first = engine.routing_for(case)
        assert engine.routing_for(case) is first

    def test_cache_keys_on_failed_elements_not_name(self, dumbbell_network):
        engine = WhatIfEngine(dumbbell_network)
        first = FailureCase(name="same", kind="link", failed_links=("A->B",))
        second = FailureCase(name="same", kind="link", failed_links=("C->D",))
        engine.routing_for(first)
        _, result = engine.routing_for(second)
        assert result.failed_links == ("C->D",)
        assert not result.is_feasible  # the bridge failure partitions

    def test_unknown_elements_raise_planning_error(self, dumbbell_network):
        from repro.errors import PlanningError

        engine = WhatIfEngine(dumbbell_network)
        case = FailureCase(name="link:X", kind="link", failed_links=("X->Y",))
        with pytest.raises(PlanningError):
            engine.routing_for(case)

    def test_cache_is_bounded(self, dumbbell_network, monkeypatch):
        monkeypatch.setattr(whatif, "CASE_CACHE_SIZE", 2)
        engine = WhatIfEngine(dumbbell_network)
        cases = enumerate_failures(dumbbell_network, kinds=("link",))[:4]
        for case in cases:
            engine.routing_for(case)
        assert len(engine._case_cache) == 2

    def test_worst_case_picks_binding_failure(self, dumbbell_scenario):
        engine = dumbbell_scenario.planning()
        truth = dumbbell_scenario.busy_mean_matrix()
        cases = enumerate_failures(dumbbell_scenario.network, kinds=("link",))
        worst = engine.worst_case(truth, cases=cases, feasible_only=True)
        projections = [
            engine.project(truth, case)
            for case in cases
        ]
        feasible = [p for p in projections if p.is_feasible]
        assert worst.max_utilisation == max(p.max_utilisation for p in feasible)

    def test_scenario_planning_entry_point(self, dumbbell_scenario):
        engine = dumbbell_scenario.planning(utilisation_threshold=0.5)
        assert isinstance(engine, WhatIfEngine)
        assert engine.utilisation_threshold == 0.5
        np.testing.assert_array_equal(
            engine.base_routing.matrix, dumbbell_scenario.routing.matrix
        )
