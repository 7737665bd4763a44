"""Tests for TrafficMatrix and TrafficMatrixSeries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.topology import Link, Network, Node, NodePair
from repro.traffic import TrafficMatrix, TrafficMatrixSeries


PAIRS = (
    NodePair("A", "B"),
    NodePair("B", "A"),
    NodePair("A", "C"),
    NodePair("C", "A"),
    NodePair("B", "C"),
    NodePair("C", "B"),
)


def matrix(values) -> TrafficMatrix:
    return TrafficMatrix(PAIRS, values)


class TestConstruction:
    def test_basic_access(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        assert tm.total == pytest.approx(70)
        assert tm.demand(NodePair("A", "C")) == 30
        assert tm[NodePair("B", "A")] == 20
        assert len(tm) == 6
        assert dict(iter(tm))[NodePair("B", "C")] == 5

    def test_negative_values_rejected(self):
        with pytest.raises(TrafficError):
            matrix([1, 2, 3, 4, 5, -1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(TrafficError):
            TrafficMatrix(PAIRS, [1, 2])

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(TrafficError):
            TrafficMatrix((NodePair("A", "B"), NodePair("A", "B")), [1, 2])

    def test_from_mapping_fills_missing_with_zero(self):
        tm = TrafficMatrix.from_mapping(PAIRS, {NodePair("A", "B"): 7.0})
        assert tm.demand(NodePair("A", "B")) == 7.0
        assert tm.demand(NodePair("C", "B")) == 0.0

    def test_from_mapping_strict_rejects_unknown_pairs(self):
        with pytest.raises(TrafficError):
            TrafficMatrix.from_mapping(PAIRS[:2], {NodePair("A", "C"): 1.0}, strict=True)

    def test_zeros_and_unknown_pair_lookup(self):
        tm = TrafficMatrix.zeros(PAIRS)
        assert tm.total == 0.0
        with pytest.raises(TrafficError):
            tm.demand(NodePair("X", "Y"))

    def test_vector_is_read_only(self):
        tm = matrix([1, 2, 3, 4, 5, 6])
        with pytest.raises(ValueError):
            tm.vector[0] = 99.0

    def test_round_trip_mapping(self):
        tm = matrix([1, 2, 3, 4, 5, 6])
        rebuilt = TrafficMatrix.from_mapping(PAIRS, tm.to_mapping())
        assert np.allclose(rebuilt.vector, tm.vector)

    def test_ndarray_argument_is_copied(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        tm = matrix(values)
        values[0] = 99.0
        assert tm.vector[0] == 1.0
        assert not np.shares_memory(tm.vector, values)
        frozen = tm.vector
        assert matrix(frozen).vector is not frozen


class TestSharedPairIndex:
    @staticmethod
    def network() -> Network:
        network = Network("ring")
        names = [f"N{i}" for i in range(8)]
        for name in names:
            network.add_node(Node(name=name))
        for a, b in zip(names, names[1:] + names[:1]):
            network.add_bidirectional_link(Link(source=a, target=b))
        return network

    def test_wrapping_over_a_shared_index_hashes_no_pair(self, monkeypatch):
        pairs = self.network().node_pairs()
        calls = {"count": 0}
        original = NodePair.__hash__

        def counting(self):
            calls["count"] += 1
            return original(self)

        monkeypatch.setattr(NodePair, "__hash__", counting)
        vectors = np.random.default_rng(0).random((1000, len(pairs)))
        for vector in vectors:
            wrapped = TrafficMatrix(pairs, vector)
            assert wrapped.pairs is pairs
        assert calls["count"] == 0
        set(pairs)  # the counter does see hashing when it happens
        assert calls["count"] == len(pairs)

    def test_derived_matrices_and_series_share_the_index(self):
        pairs = self.network().node_pairs()
        first = TrafficMatrix(pairs, np.ones(len(pairs)))
        series = TrafficMatrixSeries([first, first.scaled(2.0), first + first])
        assert series.pairs is pairs
        assert all(snapshot.pairs is pairs for snapshot in series)
        assert series.mean_matrix().pairs is pairs
        assert series.window(1, 2).pairs is pairs

    def test_series_accepts_equal_pairs_from_distinct_indexes(self):
        series = TrafficMatrixSeries([matrix([1] * 6), matrix([2] * 6)])
        assert series[0].pairs is not series[1].pairs
        assert series.pairs == PAIRS


def loop_totals(tm: TrafficMatrix, attribute: str) -> dict[str, float]:
    """Reference: per-label totals added pair by pair."""
    totals: dict[str, float] = {}
    for pair, value in tm:
        name = getattr(pair, attribute)
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def loop_fanouts(tm: TrafficMatrix) -> dict[NodePair, float]:
    """Reference: fanouts computed pair by pair from the loop totals."""
    origin_totals = loop_totals(tm, "origin")
    counts: dict[str, int] = {}
    for pair in tm.pairs:
        counts[pair.origin] = counts.get(pair.origin, 0) + 1
    return {
        pair: float(value) / origin_totals[pair.origin]
        if origin_totals[pair.origin] > 0
        else 1.0 / counts[pair.origin]
        for pair, value in tm
    }


class TestVectorisedAggregatesMatchTheLoop:
    @pytest.fixture(scope="class")
    def matrices(self, large_scenario_60):
        day = large_scenario_60.day_series
        zeroed = day[0].vector.copy()
        origins, _, origin_codes, _ = day.pairs.codes()
        zeroed[origin_codes == 0] = 0.0  # one origin with no traffic
        unsent = TrafficMatrix(day[0].pairs, zeroed)
        return [large_scenario_60.busy_mean_matrix(), day[0], day[-1], unsent]

    def test_totals_bit_identical(self, matrices):
        for tm in matrices:
            assert tm.origin_totals() == loop_totals(tm, "origin")
            assert tm.destination_totals() == loop_totals(tm, "destination")
            assert list(tm.origin_totals()) == list(loop_totals(tm, "origin"))

    def test_fanouts_bit_identical(self, matrices):
        for tm in matrices:
            reference = loop_fanouts(tm)
            assert tm.fanouts() == reference
            np.testing.assert_array_equal(
                tm.fanout_vector(), [reference[pair] for pair in tm.pairs]
            )

    def test_dense_view_matches_pairs(self, matrices):
        tm = matrices[0]
        names, dense = tm.to_dense()
        index = {name: i for i, name in enumerate(names)}
        for pair, value in tm:
            assert dense[index[pair.origin], index[pair.destination]] == value
        assert np.count_nonzero(dense) == np.count_nonzero(tm.vector)


class TestAggregates:
    def test_origin_and_destination_totals(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        assert tm.origin_totals() == {"A": 40, "B": 25, "C": 5}
        assert tm.destination_totals() == {"B": 15, "A": 20, "C": 35}

    def test_dense_view(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        names, dense = tm.to_dense()
        index = {name: i for i, name in enumerate(names)}
        assert dense[index["A"], index["B"]] == 10
        assert dense[index["C"], index["A"]] == 0
        assert np.trace(dense) == 0.0

    def test_distribution_of_zero_matrix_rejected(self):
        with pytest.raises(TrafficError):
            TrafficMatrix.zeros(PAIRS).cumulative_distribution()

    def test_fanouts_sum_to_one_per_origin(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        fanouts = tm.fanouts()
        for origin in ("A", "B", "C"):
            share = sum(v for pair, v in fanouts.items() if pair.origin == origin)
            assert share == pytest.approx(1.0)

    def test_fanouts_of_zero_origin_are_uniform(self):
        tm = matrix([0, 20, 0, 0, 5, 5])
        fanouts = tm.fanouts()
        assert fanouts[NodePair("A", "B")] == pytest.approx(0.5)
        assert fanouts[NodePair("A", "C")] == pytest.approx(0.5)

    def test_fanout_vector_matches_mapping(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        vector = tm.fanout_vector()
        fanouts = tm.fanouts()
        assert np.allclose(vector, [fanouts[pair] for pair in PAIRS])


class TestRankingHelpers:
    def test_top_demands(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        assert tm.top_demands(2) == (NodePair("A", "C"), NodePair("B", "A"))
        with pytest.raises(TrafficError):
            tm.top_demands(-1)

    def test_threshold_for_traffic_fraction(self):
        tm = matrix([50, 30, 10, 5, 3, 2])
        threshold = tm.threshold_for_traffic_fraction(0.8)
        retained = [v for v in tm.vector if v >= threshold]
        assert sum(retained) >= 0.8 * tm.total
        with pytest.raises(TrafficError):
            tm.threshold_for_traffic_fraction(0.0)

    def test_cumulative_distribution_is_monotone(self):
        tm = matrix([50, 30, 10, 5, 3, 2])
        ranks, cumulative = tm.cumulative_distribution()
        assert ranks[-1] == pytest.approx(1.0)
        assert cumulative[-1] == pytest.approx(1.0)
        assert np.all(np.diff(cumulative) >= 0)


class TestArithmetic:
    def test_scaled(self):
        tm = matrix([1, 2, 3, 4, 5, 6]).scaled(2.0)
        assert tm.total == pytest.approx(42)
        with pytest.raises(TrafficError):
            tm.scaled(-1.0)

    def test_addition_requires_same_pairs(self):
        a = matrix([1, 2, 3, 4, 5, 6])
        b = matrix([6, 5, 4, 3, 2, 1])
        assert np.allclose((a + b).vector, 7.0)
        other = TrafficMatrix(PAIRS[:2], [1, 1])
        with pytest.raises(TrafficError):
            a + other


class TestSeries:
    def build_series(self, num=5) -> TrafficMatrixSeries:
        snapshots = [matrix(np.arange(6) + k) for k in range(num)]
        return TrafficMatrixSeries(snapshots, interval_seconds=300.0, start_time_seconds=600.0)

    def test_basic_properties(self):
        series = self.build_series()
        assert len(series) == 5
        assert series[0].total == pytest.approx(15)
        assert series.as_array().shape == (5, 6)
        assert np.allclose(series.timestamps(), 600 + 300 * np.arange(5))

    def test_empty_series_rejected(self):
        with pytest.raises(TrafficError):
            TrafficMatrixSeries([])

    def test_inconsistent_pairs_rejected(self):
        bad = TrafficMatrix(PAIRS[:2], [1, 1])
        with pytest.raises(TrafficError):
            TrafficMatrixSeries([matrix([1] * 6), bad])

    def test_non_positive_interval_rejected(self):
        with pytest.raises(TrafficError):
            TrafficMatrixSeries([matrix([1] * 6)], interval_seconds=0.0)

    def test_statistics(self):
        series = self.build_series()
        assert np.allclose(series.demand_means(), np.arange(6) + 2)
        assert np.allclose(series.demand_variances(), 2.0)
        assert np.allclose(series.mean_matrix().vector, np.arange(6) + 2)
        assert np.allclose(series.total_traffic_series(), [15, 21, 27, 33, 39])

    def test_fanout_series_rows_sum_to_origin_count(self):
        series = self.build_series()
        fanouts = series.fanout_series()
        # Three origins, each with fanouts summing to one -> row sums to 3.
        assert np.allclose(fanouts.sum(axis=1), 3.0)

    def test_window_and_busy_window(self):
        series = self.build_series()
        window = series.window(1, 2)
        assert len(window) == 2
        assert window.start_time_seconds == pytest.approx(900.0)
        busy = series.busy_window(2)
        # Totals increase monotonically, so the busy window is the last two.
        assert np.allclose(busy.total_traffic_series(), [33, 39])

    def test_window_bounds_checked(self):
        series = self.build_series()
        with pytest.raises(TrafficError):
            series.window(4, 3)
        with pytest.raises(TrafficError):
            series.window(0, 0)
        with pytest.raises(TrafficError):
            series.busy_window(10)
        with pytest.raises(TrafficError):
            series.busy_window(0)
