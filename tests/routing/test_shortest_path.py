"""Tests for Dijkstra / ECMP routing."""

from __future__ import annotations

import pytest

from repro.errors import RoutingError
from repro.routing import Path, ShortestPathRouter
from repro.topology import Link, Network, Node, NodePair
from repro.topology.generators import abilene_backbone, european_backbone


def unpruned_ecmp(router, pair, tolerance=1e-9):
    """Node sequences and costs of every simple path within ``tolerance`` of the optimum.

    The search stops a path only once its own cost passes the bound, so it
    visits every cheap enough prefix; the router prunes with its distance
    table and must find the same set.
    """
    bound = router.shortest_path(pair).cost + tolerance
    found = []

    def extend(nodes, cost):
        if cost > bound:
            return
        if nodes[-1] == pair.destination:
            found.append((nodes, cost))
            return
        for link in router.network.outgoing_links(nodes[-1]):
            if link.target not in nodes:
                extend(nodes + (link.target,), cost + router._link_cost(link))

    extend((pair.origin,), 0.0)
    return sorted(found)


class TestPathObject:
    def test_consistency_checks(self, triangle_network):
        router = ShortestPathRouter(triangle_network)
        path = router.shortest_path(NodePair("A", "B"))
        assert path.nodes == ("A", "B")
        assert path.link_names() == ("A->B",)
        assert len(path) == 1
        assert [link.name for link in path] == ["A->B"]

    def test_mismatched_links_rejected(self, triangle_network):
        link = triangle_network.link("A->B")
        with pytest.raises(RoutingError):
            Path(pair=NodePair("A", "C"), nodes=("A", "B"), links=(link,), cost=1.0)
        with pytest.raises(RoutingError):
            Path(pair=NodePair("A", "B"), nodes=("A", "B"), links=(), cost=1.0)
        with pytest.raises(RoutingError):
            Path(pair=NodePair("A", "B"), nodes=("A",), links=(), cost=0.0)


class TestShortestPath:
    def test_direct_link_preferred(self, triangle_network):
        router = ShortestPathRouter(triangle_network)
        path = router.shortest_path(NodePair("A", "C"))
        assert path.nodes == ("A", "C")
        assert path.cost == 1.0

    def test_multi_hop_path(self, line_network):
        router = ShortestPathRouter(line_network)
        path = router.shortest_path(NodePair("A", "D"))
        assert path.nodes == ("A", "B", "C", "D")
        assert path.cost == 3.0

    def test_metric_influences_route(self):
        network = Network("weighted")
        for name in ("A", "B", "C"):
            network.add_node(Node(name=name))
        network.add_bidirectional_link(Link(source="A", target="C", metric=10.0))
        network.add_bidirectional_link(Link(source="A", target="B", metric=1.0))
        network.add_bidirectional_link(Link(source="B", target="C", metric=1.0))
        path = ShortestPathRouter(network).shortest_path(NodePair("A", "C"))
        assert path.nodes == ("A", "B", "C")

    def test_hop_metric_ignores_weights(self):
        network = Network("weighted")
        for name in ("A", "B", "C"):
            network.add_node(Node(name=name))
        network.add_bidirectional_link(Link(source="A", target="C", metric=10.0))
        network.add_bidirectional_link(Link(source="A", target="B", metric=1.0))
        network.add_bidirectional_link(Link(source="B", target="C", metric=1.0))
        path = ShortestPathRouter(network, metric_attribute="hops").shortest_path(NodePair("A", "C"))
        assert path.nodes == ("A", "C")

    def test_unreachable_destination_raises(self):
        network = Network("disconnected", nodes=[Node(name="A"), Node(name="B")])
        with pytest.raises(RoutingError):
            ShortestPathRouter(network).shortest_path(NodePair("A", "B"))

    def test_unknown_metric_attribute_rejected(self, triangle_network):
        with pytest.raises(RoutingError):
            ShortestPathRouter(triangle_network, metric_attribute="latency")

    def test_deterministic_tie_breaking(self):
        # Two equal-cost two-hop paths A->B->D and A->C->D: the lexicographically
        # smaller node sequence must always win.
        network = Network("diamond")
        for name in ("A", "B", "C", "D"):
            network.add_node(Node(name=name))
        for a, b in (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")):
            network.add_bidirectional_link(Link(source=a, target=b, metric=1.0))
        path = ShortestPathRouter(network).shortest_path(NodePair("A", "D"))
        assert path.nodes == ("A", "B", "D")


class TestECMPAndRouteAll:
    def test_all_shortest_paths_enumerates_equal_cost(self):
        network = Network("diamond")
        for name in ("A", "B", "C", "D"):
            network.add_node(Node(name=name))
        for a, b in (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")):
            network.add_bidirectional_link(Link(source=a, target=b, metric=1.0))
        paths = ShortestPathRouter(network).all_shortest_paths(NodePair("A", "D"))
        assert len(paths) == 2
        assert {p.nodes for p in paths} == {("A", "B", "D"), ("A", "C", "D")}

    @pytest.mark.parametrize("metric", ["metric", "hops"])
    @pytest.mark.parametrize("build", [european_backbone, abilene_backbone])
    def test_pruned_search_finds_every_equal_cost_path(self, build, metric):
        router = ShortestPathRouter(build(), metric_attribute=metric)
        for pair in router.network.node_pairs():
            paths = router.all_shortest_paths(pair)
            assert [(p.nodes, p.cost) for p in paths] == unpruned_ecmp(router, pair)

    def test_tolerance_admits_near_ties_only(self):
        network = Network("near-tie")
        for name in ("A", "B", "C", "D"):
            network.add_node(Node(name=name))
        network.add_link(Link(source="A", target="B", metric=1.0))
        network.add_link(Link(source="B", target="D", metric=1.0))
        network.add_link(Link(source="A", target="C", metric=1.0))
        network.add_link(Link(source="C", target="D", metric=1.0 + 5e-10))
        router = ShortestPathRouter(network)
        assert len(router.all_shortest_paths(NodePair("A", "D"))) == 2
        assert len(router.all_shortest_paths(NodePair("A", "D"), tolerance=1e-10)) == 1

    def test_single_path_when_no_ties(self, line_network):
        paths = ShortestPathRouter(line_network).all_shortest_paths(NodePair("A", "C"))
        assert len(paths) == 1

    def test_route_all_covers_every_pair(self, triangle_network):
        routes = ShortestPathRouter(triangle_network).route_all()
        assert set(routes) == set(triangle_network.node_pairs())
        for pair, path in routes.items():
            assert path.pair == pair
