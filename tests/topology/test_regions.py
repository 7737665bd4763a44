"""Tests for region extraction and PoP aggregation."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology import (
    Link,
    Network,
    Node,
    NodePair,
    NodeRole,
    aggregate_demands_to_pops,
    aggregate_to_pops,
    extract_region,
)
from repro.routing import build_routing_matrix


@pytest.fixture
def global_network() -> Network:
    """Two routers per city in two regions, interconnected."""
    network = Network("global")
    specs = [
        ("LON-cr1", "LON", "europe", NodeRole.ACCESS),
        ("LON-cr2", "LON", "europe", NodeRole.PEERING),
        ("FRA-cr1", "FRA", "europe", NodeRole.ACCESS),
        ("NYC-cr1", "NYC", "america", NodeRole.ACCESS),
        ("NYC-cr2", "NYC", "america", NodeRole.TRANSIT),
        ("CHI-cr1", "CHI", "america", NodeRole.ACCESS),
    ]
    for name, city, region, role in specs:
        network.add_node(Node(name=name, city=city, region=region, role=role, population=1.0))
    links = [
        ("LON-cr1", "LON-cr2", 10_000.0, 1.0),
        ("LON-cr1", "FRA-cr1", 10_000.0, 7.0),
        ("LON-cr2", "FRA-cr1", 2_500.0, 3.0),  # parallel LON-FRA, cheaper metric
        ("NYC-cr1", "NYC-cr2", 10_000.0, 1.0),
        ("NYC-cr2", "CHI-cr1", 10_000.0, 1.0),
        ("NYC-cr1", "CHI-cr1", 2_500.0, 1.0),
        ("LON-cr2", "NYC-cr1", 10_000.0, 1.0),  # transatlantic
    ]
    for a, b, capacity, metric in links:
        network.add_bidirectional_link(
            Link(source=a, target=b, capacity_mbps=capacity, metric=metric)
        )
    return network


class TestExtractRegion:
    def test_keeps_only_region_nodes_and_internal_links(self, global_network):
        europe = extract_region(global_network, "europe")
        assert {n.name for n in europe.nodes} == {"LON-cr1", "LON-cr2", "FRA-cr1"}
        assert all(
            link.source in europe.node_names and link.target in europe.node_names
            for link in europe.links
        )
        # The transatlantic link must be gone.
        assert not europe.has_link("LON-cr2->NYC-cr1")

    def test_custom_name(self, global_network):
        assert extract_region(global_network, "europe", name="eu").name == "eu"

    def test_unknown_region_rejected(self, global_network):
        with pytest.raises(TopologyError):
            extract_region(global_network, "asia")

    def test_regions_partition_the_nodes(self, global_network):
        extracted = [
            extract_region(global_network, region) for region in ("europe", "america")
        ]
        names = [name for region in extracted for name in region.node_names]
        assert sorted(names) == sorted(global_network.node_names)

    def test_keeps_every_internal_link(self, global_network):
        america = extract_region(global_network, "america")
        members = set(america.node_names)
        internal = {
            link.name
            for link in global_network.links
            if link.source in members and link.target in members
        }
        assert set(america.link_names) == internal

    def test_node_and_link_attributes_survive(self, global_network):
        europe = extract_region(global_network, "europe")
        node = europe.node("LON-cr2")
        assert node.role is NodeRole.PEERING
        assert node.pop_name == "LON"
        assert node.population == pytest.approx(1.0)
        link = europe.find_link("LON-cr2", "FRA-cr1")
        assert link.capacity_mbps == pytest.approx(2_500.0)
        assert link.metric == pytest.approx(3.0)

    def test_extracted_region_routes_every_internal_demand(self, global_network):
        america = extract_region(global_network, "america")
        routing = build_routing_matrix(america)
        assert routing.shape == (america.num_links, america.num_pairs)
        matrix = routing.with_backend("dense").matrix
        # Every demand of the region has a path inside the region.
        assert (matrix.sum(axis=0) >= 1).all()


class TestAggregateToPops:
    def test_cities_become_single_nodes(self, global_network):
        pops = aggregate_to_pops(global_network)
        assert {n.name for n in pops.nodes} == {"LON", "FRA", "NYC", "CHI"}

    def test_intra_pop_links_disappear(self, global_network):
        pops = aggregate_to_pops(global_network)
        assert not pops.has_link("LON->LON")
        for link in pops.links:
            assert link.source != link.target

    def test_parallel_links_merge_capacity_and_min_metric(self, global_network):
        pops = aggregate_to_pops(global_network)
        merged = pops.find_link("LON", "FRA")
        assert merged.capacity_mbps == pytest.approx(12_500.0)
        assert merged.metric == pytest.approx(3.0)

    def test_strongest_role_wins(self, global_network):
        pops = aggregate_to_pops(global_network)
        assert pops.node("LON").role is NodeRole.PEERING
        assert pops.node("NYC").role is NodeRole.ACCESS

    def test_populations_sum(self, global_network):
        pops = aggregate_to_pops(global_network)
        assert pops.node("LON").population == pytest.approx(2.0)

    def test_default_and_custom_names(self, global_network):
        assert aggregate_to_pops(global_network).name == "global-pops"
        assert aggregate_to_pops(global_network, name="pops").name == "pops"

    def test_region_taken_from_members(self, global_network):
        pops = aggregate_to_pops(global_network)
        assert pops.node("LON").region == "europe"
        assert pops.node("NYC").region == "america"

    def test_reverse_direction_merges_independently(self, global_network):
        pops = aggregate_to_pops(global_network)
        merged = pops.find_link("FRA", "LON")
        assert merged.capacity_mbps == pytest.approx(12_500.0)
        assert merged.metric == pytest.approx(3.0)

    def test_transit_only_pop_stays_transit(self):
        network = Network("transit")
        for name, city, role in (
            ("A-cr1", "A", NodeRole.ACCESS),
            ("T-cr1", "T", NodeRole.TRANSIT),
            ("T-cr2", "T", NodeRole.TRANSIT),
        ):
            network.add_node(Node(name=name, city=city, role=role, population=1.0))
        network.add_bidirectional_link(
            Link(source="A-cr1", target="T-cr1", capacity_mbps=1_000.0, metric=1.0)
        )
        network.add_bidirectional_link(
            Link(source="T-cr1", target="T-cr2", capacity_mbps=1_000.0, metric=1.0)
        )
        pops = aggregate_to_pops(network)
        assert pops.node("T").role is NodeRole.TRANSIT
        assert pops.node("A").role is NodeRole.ACCESS

    def test_extract_then_aggregate_gives_the_regional_pop_network(
        self, global_network
    ):
        # The paper's pipeline: cut out a region, then merge its routers.
        pops = aggregate_to_pops(extract_region(global_network, "europe"))
        assert set(pops.node_names) == {"LON", "FRA"}
        assert {link.name for link in pops.links} == {"LON->FRA", "FRA->LON"}
        assert pops.find_link("LON", "FRA").capacity_mbps == pytest.approx(12_500.0)

    def test_aggregating_twice_changes_nothing(self, global_network):
        once = aggregate_to_pops(global_network)
        twice = aggregate_to_pops(once)
        assert set(twice.node_names) == set(once.node_names)
        assert {
            link.name: (link.capacity_mbps, link.metric) for link in twice.links
        } == {link.name: (link.capacity_mbps, link.metric) for link in once.links}


class TestAggregateDemands:
    def test_inter_pop_demands_sum(self, global_network):
        demands = {
            NodePair("LON-cr1", "NYC-cr1"): 10.0,
            NodePair("LON-cr2", "NYC-cr1"): 5.0,
            NodePair("LON-cr1", "LON-cr2"): 99.0,  # intra-PoP, must vanish
        }
        aggregated = aggregate_demands_to_pops(global_network, demands)
        assert aggregated == {NodePair("LON", "NYC"): 15.0}

    def test_negative_demand_rejected(self, global_network):
        with pytest.raises(TopologyError):
            aggregate_demands_to_pops(global_network, {NodePair("LON-cr1", "NYC-cr1"): -1.0})

    def test_unknown_node_rejected(self, global_network):
        with pytest.raises(TopologyError):
            aggregate_demands_to_pops(global_network, {NodePair("X", "NYC-cr1"): 1.0})

    def test_inter_pop_volume_is_conserved(self, global_network):
        pop_of = {node.name: node.pop_name for node in global_network.nodes}
        demands = {
            pair: float(index + 1)
            for index, pair in enumerate(global_network.node_pairs())
        }
        inter_pop = sum(
            volume
            for pair, volume in demands.items()
            if pop_of[pair.origin] != pop_of[pair.destination]
        )
        aggregated = aggregate_demands_to_pops(global_network, demands)
        assert sum(aggregated.values()) == pytest.approx(inter_pop)
        pops = aggregate_to_pops(global_network)
        assert set(aggregated) == set(pops.node_pairs())

    def test_empty_demands_aggregate_to_nothing(self, global_network):
        assert aggregate_demands_to_pops(global_network, {}) == {}
