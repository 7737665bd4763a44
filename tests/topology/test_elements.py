"""Unit tests for nodes, links and node pairs."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology import Link, Node, NodePair, NodeRole, PairIndex


class TestNode:
    def test_defaults(self):
        node = Node(name="LON")
        assert node.role is NodeRole.ACCESS
        assert node.population == 1.0
        assert node.is_edge()

    def test_transit_node_is_not_edge(self):
        node = Node(name="T1", role=NodeRole.TRANSIT)
        assert not node.is_edge()
        assert not NodeRole.TRANSIT.terminates_traffic()

    def test_peering_node_is_edge(self):
        assert Node(name="P1", role=NodeRole.PEERING).is_edge()

    def test_empty_name_rejected(self):
        with pytest.raises(TopologyError):
            Node(name="")

    def test_negative_population_rejected(self):
        with pytest.raises(TopologyError):
            Node(name="X", population=-1.0)

    def test_nodes_are_hashable_and_orderable(self):
        nodes = {Node(name="B"), Node(name="A")}
        assert len(nodes) == 2
        assert sorted(nodes)[0].name == "A"


class TestLink:
    def test_autogenerated_name(self):
        link = Link(source="A", target="B")
        assert link.name == "A->B"

    def test_explicit_name_preserved(self):
        link = Link(source="A", target="B", name="core-1")
        assert link.name == "core-1"

    def test_reversed_swaps_endpoints_and_keeps_attributes(self):
        link = Link(source="A", target="B", capacity_mbps=2500.0, metric=7.0)
        back = link.reversed()
        assert back.source == "B" and back.target == "A"
        assert back.capacity_mbps == 2500.0
        assert back.metric == 7.0
        assert back.name == "B->A"

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link(source="A", target="A")

    @pytest.mark.parametrize("capacity", [0.0, -10.0])
    def test_non_positive_capacity_rejected(self, capacity):
        with pytest.raises(TopologyError):
            Link(source="A", target="B", capacity_mbps=capacity)

    @pytest.mark.parametrize("metric", [0.0, -1.0])
    def test_non_positive_metric_rejected(self, metric):
        with pytest.raises(TopologyError):
            Link(source="A", target="B", metric=metric)

    def test_empty_endpoint_rejected(self):
        with pytest.raises(TopologyError):
            Link(source="", target="B")


class TestNodePair:
    def test_string_form(self):
        assert str(NodePair("A", "B")) == "A->B"

    def test_reversed(self):
        assert NodePair("A", "B").reversed() == NodePair("B", "A")

    def test_identical_endpoints_rejected(self):
        with pytest.raises(TopologyError):
            NodePair("A", "A")

    def test_empty_endpoint_rejected(self):
        with pytest.raises(TopologyError):
            NodePair("", "B")

    def test_pairs_are_hashable(self):
        pairs = {NodePair("A", "B"), NodePair("B", "A"), NodePair("A", "B")}
        assert len(pairs) == 2


PAIRS = (
    NodePair("A", "B"),
    NodePair("A", "C"),
    NodePair("C", "B"),
    NodePair("B", "A"),
    NodePair("C", "A"),
)


class TestPairIndex:
    def test_behaves_as_the_tuple_of_its_pairs(self):
        index = PairIndex(PAIRS)
        assert isinstance(index, tuple)
        assert index == PAIRS
        assert list(index) == list(PAIRS)
        assert len(index) == len(PAIRS)
        assert index[2] == NodePair("C", "B")

    def test_duplicates_rejected(self):
        with pytest.raises(TopologyError):
            PairIndex(PAIRS + (NodePair("C", "B"),))

    def test_codes_follow_first_appearance(self):
        origins, destinations, origin_codes, destination_codes = PairIndex(PAIRS).codes()
        assert origins == ("A", "C", "B")
        assert destinations == ("B", "C", "A")
        for position, pair in enumerate(PAIRS):
            assert origins[origin_codes[position]] == pair.origin
            assert destinations[destination_codes[position]] == pair.destination
        for codes in (origin_codes, destination_codes):
            assert np.issubdtype(codes.dtype, np.integer)
            assert not codes.flags.writeable

    def test_edge_sums_add_each_label_in_pair_order(self):
        index = PairIndex(PAIRS)
        origins, destinations, _, _ = index.codes()
        values = np.random.default_rng(3).uniform(0.0, 1e3, size=(4, len(PAIRS)))
        expected_origins = np.zeros((4, len(origins)))
        expected_destinations = np.zeros((4, len(destinations)))
        for position, pair in enumerate(PAIRS):
            expected_origins[:, origins.index(pair.origin)] += values[:, position]
            expected_destinations[:, destinations.index(pair.destination)] += values[:, position]
        origin_sums, destination_sums = index.edge_sums(values)
        np.testing.assert_array_equal(origin_sums, expected_origins)
        np.testing.assert_array_equal(destination_sums, expected_destinations)
        assert origin_sums.flags.c_contiguous and destination_sums.flags.c_contiguous
        origin_row, destination_row = index.edge_sums(values[1])
        np.testing.assert_array_equal(origin_row, expected_origins[1])
        np.testing.assert_array_equal(destination_row, expected_destinations[1])

    def test_codes_are_cached(self):
        index = PairIndex(PAIRS)
        assert index.codes() is index.codes()

    def test_position_lookup(self):
        index = PairIndex(PAIRS)
        assert [index.position(pair) for pair in PAIRS] == list(range(len(PAIRS)))
        with pytest.raises(KeyError):
            index.position(NodePair("B", "C"))

    def test_of_adopts_an_index_and_builds_from_other_sequences(self):
        index = PairIndex(PAIRS)
        assert PairIndex.of(index) is index
        rebuilt = PairIndex.of(list(PAIRS))
        assert isinstance(rebuilt, PairIndex)
        assert rebuilt == index
        assert type(tuple(index)) is tuple

    def test_pickle_carries_no_cache(self):
        index = PairIndex(PAIRS)
        index.position(PAIRS[0])  # fill the lazy position cache
        assert index.__reduce__() == (PairIndex, (PAIRS,))
        payload = pickle.dumps(index)
        assert len(payload) < len(pickle.dumps(PAIRS)) + 64
        restored = pickle.loads(payload)
        assert isinstance(restored, PairIndex)
        assert restored == index
        assert restored.position(PAIRS[3]) == 3

