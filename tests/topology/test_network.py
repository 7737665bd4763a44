"""Unit tests for the Network container."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology import Link, Network, Node, NodePair, NodeRole, PairIndex


def build_square() -> Network:
    network = Network("square")
    for name in ("A", "B", "C", "D"):
        network.add_node(Node(name=name))
    for a, b in (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")):
        network.add_bidirectional_link(Link(source=a, target=b))
    return network


class TestConstruction:
    def test_counts(self):
        network = build_square()
        assert network.num_nodes == 4
        assert network.num_links == 8
        assert network.num_pairs == 12

    def test_duplicate_node_rejected(self):
        network = Network("n")
        network.add_node(Node(name="A"))
        with pytest.raises(TopologyError):
            network.add_node(Node(name="A"))

    def test_duplicate_link_rejected(self):
        network = Network("n", nodes=[Node(name="A"), Node(name="B")])
        network.add_link(Link(source="A", target="B"))
        with pytest.raises(TopologyError):
            network.add_link(Link(source="A", target="B"))

    def test_link_with_unknown_endpoint_rejected(self):
        network = Network("n", nodes=[Node(name="A")])
        with pytest.raises(TopologyError):
            network.add_link(Link(source="A", target="Z"))

    def test_empty_name_rejected(self):
        with pytest.raises(TopologyError):
            Network("")


class TestAccess:
    def test_node_and_link_lookup(self):
        network = build_square()
        assert network.node("A").name == "A"
        assert network.link("A->B").target == "B"
        assert network.has_node("A") and not network.has_node("Z")

    def test_unknown_lookups_raise(self):
        network = build_square()
        with pytest.raises(TopologyError):
            network.node("Z")
        with pytest.raises(TopologyError):
            network.link("Z->Z")
        with pytest.raises(TopologyError):
            network.link_index("nope")

    def test_link_index_matches_insertion_order(self):
        network = build_square()
        for idx, name in enumerate(network.link_names):
            assert network.link_index(name) == idx

    def test_adjacency(self):
        network = build_square()
        outgoing = {link.target for link in network.outgoing_links("A")}
        incoming = {link.source for link in network.incoming_links("A")}
        assert outgoing == {"B", "D"}
        assert incoming == {"B", "D"}

    def test_edge_nodes_are_access_and_peering(self):
        network = Network("roles")
        network.add_node(Node(name="acc", role=NodeRole.ACCESS))
        network.add_node(Node(name="peer", role=NodeRole.PEERING))
        network.add_node(Node(name="transit", role=NodeRole.TRANSIT))
        assert {n.name for n in network.edge_nodes} == {"acc", "peer"}

    def test_contains_iter_len(self):
        network = build_square()
        assert "A" in network and "A->B" in network and "Z" not in network
        assert "A->C" not in network
        assert len(network) == 4
        assert [node.name for node in network] == ["A", "B", "C", "D"]


class TestPairs:
    def test_pair_enumeration_excludes_diagonal_and_transit(self):
        network = build_square()
        network.add_node(Node(name="T", role=NodeRole.TRANSIT))
        pairs = network.node_pairs()
        assert len(pairs) == 12
        assert all(pair.origin != pair.destination for pair in pairs)
        assert all("T" not in (pair.origin, pair.destination) for pair in pairs)

    def test_pair_index_is_positional(self):
        # Vectors over the network's pairs are laid out origin-major over
        # the edge nodes, and the index maps each pair back to its slot.
        network = build_square()
        index = network.node_pairs()
        names = network.node_names
        expected = [NodePair(o, d) for o in names for d in names if o != d]
        for position, pair in enumerate(expected):
            assert index[position] == pair
            assert index.position(pair) == position

    def test_node_pairs_cached_until_a_node_is_added(self):
        network = build_square()
        pairs = network.node_pairs()
        assert isinstance(pairs, PairIndex)
        assert network.node_pairs() is pairs
        network.add_link(Link(source="A", target="C"))
        assert network.node_pairs() is pairs
        network.add_node(Node(name="E"))
        grown = network.node_pairs()
        assert grown is not pairs
        assert len(grown) == 20
        assert NodePair("E", "A") in grown


class TestValidationAndViews:
    def test_valid_network_passes(self):
        network = build_square()
        network.validate()

    def test_disconnected_network_fails(self):
        network = Network("broken", nodes=[Node(name="A"), Node(name="B")])
        with pytest.raises(TopologyError):
            network.validate()

    def test_single_edge_node_fails_validation(self):
        network = Network("single", nodes=[Node(name="A")])
        with pytest.raises(TopologyError):
            network.validate()

    @pytest.mark.parametrize(("source", "target", "demand"), [("A", "B", "B->A"), ("B", "A", "A->B")])
    def test_one_way_link_error_names_the_missing_direction(self, source, target, demand):
        network = Network("one-way", nodes=[Node(name="A"), Node(name="B")])
        network.add_link(Link(source=source, target=target))
        with pytest.raises(TopologyError) as raised:
            network.validate()
        assert str(raised.value) == f"network 'one-way' has no path for demand {demand}"

    @pytest.mark.parametrize(("source", "target", "demand"), [("C", "T", "A->C"), ("T", "C", "C->A")])
    def test_error_names_the_first_cut_off_edge_node(self, source, target, demand):
        # T is a transit node inserted first, so A is the first edge node; B
        # shares A's component, while C (one-way through T) and D (isolated)
        # do not.  The error names C, the first of them in insertion order,
        # in the direction that has no path (through T counts).
        nodes = [Node(name="T", role=NodeRole.TRANSIT)] + [Node(name=n) for n in "ABCD"]
        network = Network("transit", nodes=nodes)
        network.add_bidirectional_link(Link(source="T", target="A"))
        network.add_bidirectional_link(Link(source="A", target="B"))
        network.add_link(Link(source=source, target=target))
        with pytest.raises(TopologyError) as raised:
            network.validate()
        assert str(raised.value) == f"network 'transit' has no path for demand {demand}"

    def test_validate_reads_links_added_after_a_probe(self):
        network = Network("grow", nodes=[Node(name="A"), Node(name="B")])
        network.add_link(Link(source="A", target="B"))
        with pytest.raises(TopologyError):
            network.validate()
        network.add_link(Link(source="B", target="A"))
        network.validate()

    def test_validate_reads_nodes_added_after_a_probe(self):
        network = build_square()
        network.validate()
        network.add_node(Node(name="E"))
        with pytest.raises(TopologyError) as raised:
            network.validate()
        assert str(raised.value) == "network 'square' has no path for demand A->E"

    def test_cut_off_transit_node_passes_validation(self):
        # Only edge nodes source or sink demands, so a transit node nothing
        # can reach leaves every demand routable.
        network = build_square()
        network.add_node(Node(name="T", role=NodeRole.TRANSIT))
        network.add_link(Link(source="T", target="A"))
        network.validate()

    def test_too_few_edge_nodes_error_counts_only_edge_nodes(self):
        nodes = [Node(name="A"), Node(name="T", role=NodeRole.TRANSIT)]
        network = Network("lonely", nodes=nodes)
        network.add_bidirectional_link(Link(source="A", target="T"))
        with pytest.raises(TopologyError) as raised:
            network.validate()
        assert str(raised.value) == "network 'lonely' needs at least two edge nodes, got 1"
