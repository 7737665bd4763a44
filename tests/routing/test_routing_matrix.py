"""Tests for routing-matrix construction and the t = R s product."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.routing import (
    CSPFRouter,
    RoutingMatrix,
    ShortestPathRouter,
    build_ecmp_routing_matrix,
    build_routing_matrix,
)
from repro.topology import Link, Network, Node, NodePair


class TestRoutingMatrixObject:
    def test_shape_and_labels(self, triangle_network):
        routing = build_routing_matrix(triangle_network)
        assert routing.shape == (6, 6)
        assert routing.num_links == 6
        assert routing.num_pairs == 6
        assert routing.link_names == triangle_network.link_names
        assert routing.pairs == triangle_network.node_pairs()

    def test_single_hop_columns_have_one_entry(self, triangle_network):
        routing = build_routing_matrix(triangle_network)
        for pair in triangle_network.node_pairs():
            column = routing.pair_column(pair)
            assert column.sum() == pytest.approx(1.0)
        np.testing.assert_array_equal(routing.path_lengths(), np.ones(routing.num_pairs))

    def test_multi_hop_column(self, line_network):
        routing = build_routing_matrix(line_network)
        column = routing.pair_column(NodePair("A", "D"))
        assert column.sum() == pytest.approx(3.0)
        assert column[routing.link_names.index("A->B")] == 1.0

    def test_link_loads_match_manual_computation(self, line_network):
        routing = build_routing_matrix(line_network)
        demands = np.zeros(routing.num_pairs)
        demands[routing.pair_index(NodePair("A", "D"))] = 5.0
        demands[routing.pair_index(NodePair("A", "B"))] = 2.0
        loads = routing.link_loads(demands)
        by_name = dict(zip(routing.link_names, loads))
        assert by_name["A->B"] == pytest.approx(7.0)
        assert by_name["B->C"] == pytest.approx(5.0)
        assert by_name["C->D"] == pytest.approx(5.0)
        assert by_name["B->A"] == pytest.approx(0.0)

    def test_wrong_demand_shape_rejected(self, triangle_routing):
        with pytest.raises(RoutingError):
            triangle_routing.link_loads(np.ones(3))

    def test_rank_and_underdetermination(self, line_network, triangle_network):
        line = build_routing_matrix(line_network)
        triangle = build_routing_matrix(triangle_network)
        # The line network has 12 pairs but only 6 links: under-determined.
        assert line.rank() < line.num_pairs
        # The triangle routes every pair on its own link: fully determined.
        assert triangle.rank() == triangle.num_pairs == 6

    def test_unknown_lookups_raise(self, triangle_routing):
        with pytest.raises(RoutingError):
            triangle_routing.pair_index(NodePair("A", "Z"))

    def test_invalid_construction_rejected(self, triangle_network):
        pairs = triangle_network.node_pairs()
        with pytest.raises(RoutingError):
            RoutingMatrix(np.zeros((2, 2, 2)), ["a", "b"], pairs[:2])
        with pytest.raises(RoutingError):
            RoutingMatrix(np.zeros((3, 2)), ["a", "b"], pairs[:2])
        with pytest.raises(RoutingError):
            RoutingMatrix(np.full((2, 2), 2.0), ["a", "b"], pairs[:2])


@pytest.mark.parametrize(
    "builder", ["europe_scenario", "america_scenario", "abilene_scenario", "large_scenario"]
)
def test_gram_rank_matches_dense_matrix_rank(builder):
    """The link-Gram eigenvalue rank equals the dense SVD rank."""
    import repro.datasets as datasets

    if builder == "large_scenario":
        scenario = datasets.large_scenario(100, seed=2004)
    else:
        scenario = getattr(datasets, builder)(seed=2004)
    routing = scenario.routing
    assert routing.rank() == np.linalg.matrix_rank(routing.matrix)


class TestBuilders:
    def test_missing_path_rejected(self, triangle_network):
        router = ShortestPathRouter(triangle_network)
        partial = {pair: router.shortest_path(pair) for pair in triangle_network.node_pairs()[:2]}
        with pytest.raises(RoutingError):
            build_routing_matrix(triangle_network, paths=partial)

    def test_cspf_builder_matches_shortest_path_for_zero_bandwidth(self, line_network):
        plain = build_routing_matrix(line_network)
        cspf = build_routing_matrix(line_network, paths=CSPFRouter(line_network).route_all())
        assert np.allclose(plain.matrix, cspf.matrix)

    def test_ecmp_builder_splits_equal_cost_paths(self):
        network = Network("diamond")
        for name in ("A", "B", "C", "D"):
            network.add_node(Node(name=name))
        for a, b in (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")):
            network.add_bidirectional_link(Link(source=a, target=b, metric=1.0))
        ecmp = build_ecmp_routing_matrix(network)
        column = ecmp.pair_column(NodePair("A", "D"))
        # Two equal-cost paths of two hops each: four links carry 0.5.
        assert np.isclose(column.sum(), 2.0)
        assert np.isclose(column.max(), 0.5)

    def test_ecmp_matches_single_path_when_unique(self, line_network):
        plain = build_routing_matrix(line_network)
        ecmp = build_ecmp_routing_matrix(line_network)
        assert np.allclose(plain.matrix, ecmp.matrix)
