"""Batched all-pairs routing must be path-for-path identical to per-pair.

``route_all`` routes every pair with one csgraph next-hop walk instead of
one truncated Dijkstra per pair (:meth:`ShortestPathRouter.shortest_path`).
The batched result must match the per-pair queries exactly — node
sequences, link sequences and costs — on every named scenario topology,
including under the 'hops' metric where equal-cost ties are plentiful.
"""

from __future__ import annotations

import pytest

from repro.errors import RoutingError
from repro.routing.shortest_path import ShortestPathRouter, single_source_shortest_paths
from repro.topology.elements import Link, Node, NodePair
from repro.topology.network import Network


def per_pair(router, pairs=None):
    pairs = router.network.node_pairs() if pairs is None else pairs
    return {pair: router.shortest_path(pair) for pair in pairs}


def assert_same_paths(batched, legacy):
    assert set(batched) == set(legacy)
    for pair, path in batched.items():
        other = legacy[pair]
        assert path.nodes == other.nodes, pair
        assert path.link_names() == other.link_names(), pair
        assert path.cost == pytest.approx(other.cost, abs=1e-12), pair


@pytest.fixture(scope="module", params=["europe", "america", "abilene"])
def named_network(request):
    from repro.topology.generators import (
        abilene_backbone,
        american_backbone,
        european_backbone,
    )

    builders = {
        "europe": european_backbone,
        "america": american_backbone,
        "abilene": abilene_backbone,
    }
    return builders[request.param]()


class TestBatchedEqualsPairwise:
    def test_metric_routing_identical(self, named_network):
        router = ShortestPathRouter(named_network)
        assert_same_paths(router.route_all(), per_pair(router))

    def test_hop_routing_identical(self, named_network):
        # Minimum-hop routing maximises equal-cost ties, stressing the
        # lexicographic tie-break that both code paths must share.
        router = ShortestPathRouter(named_network, metric_attribute="hops")
        assert_same_paths(router.route_all(), per_pair(router))

    def test_random_backbones_identical(self):
        from repro.routing.routing_matrix import build_routing_matrix
        from repro.topology.generators import random_backbone

        networks = [random_backbone(17, avg_degree=3.4, seed=seed) for seed in (0, 1, 2)]
        # The topology of large_scenario(50, seed=2004).
        networks.append(random_backbone(50, avg_degree=3.0, seed=2004))
        for network in networks:
            router = ShortestPathRouter(network)
            legacy = per_pair(router)
            assert_same_paths(router.route_all(), legacy)
            # The CSR assembled straight from the next-hop table equals the
            # one assembled from the per-pair paths.
            assert (
                build_routing_matrix(network).fingerprint()
                == build_routing_matrix(network, paths=legacy).fingerprint()
            )

    def test_pair_subset_only_routes_requested(self, named_network):
        router = ShortestPathRouter(named_network)
        subset = named_network.node_pairs()[:7]
        routed = router.route_all(subset)
        assert tuple(routed) == tuple(subset)
        assert_same_paths(routed, per_pair(router, subset))

    def test_unknown_node_rejected(self, named_network):
        from repro.errors import TopologyError

        router = ShortestPathRouter(named_network)
        with pytest.raises(TopologyError):
            router.route_all([NodePair(named_network.node_names[0], "NOPE")])


class TestSingleSource:
    def test_tree_matches_per_destination_dijkstra(self, named_network):
        router = ShortestPathRouter(named_network)
        origin = named_network.node_names[0]
        tree = single_source_shortest_paths(
            named_network, origin, lambda link: link.metric
        )
        assert set(tree) == set(named_network.node_names) - {origin}
        for destination, (nodes, links, cost) in tree.items():
            reference = router.shortest_path(NodePair(origin, destination))
            assert nodes == reference.nodes
            assert tuple(link.name for link in links) == reference.link_names()
            assert cost == pytest.approx(reference.cost, abs=1e-12)

    def test_unreachable_destination_missing_and_route_all_raises(self):
        # B -> A exists but A -> B does not: A cannot reach anything.
        network = Network("oneway")
        for name in ("A", "B"):
            network.add_node(Node(name=name))
        network.add_link(Link(source="B", target="A", capacity_mbps=1000.0, metric=1.0))

        tree = single_source_shortest_paths(network, "A", lambda link: link.metric)
        assert tree == {}
        router = ShortestPathRouter(network)
        with pytest.raises(RoutingError, match="no path"):
            router.route_all([NodePair("A", "B")])
