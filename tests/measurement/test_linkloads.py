"""Tests for the consistent link-load computation ``t = R s``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measurement import link_load_series
from repro.routing import build_routing_matrix
from repro.topology import NodePair
from repro.traffic import TrafficMatrix, TrafficMatrixSeries


class TestComputation:
    def test_consistent_with_routing_matrix(self, line_network):
        routing = build_routing_matrix(line_network)
        demands = {NodePair("A", "D"): 10.0, NodePair("B", "C"): 4.0}
        series = TrafficMatrixSeries([TrafficMatrix.from_network(line_network, demands)])
        (loads,) = link_load_series(routing, series)
        load_of = dict(zip(routing.link_names, loads))
        assert load_of["A->B"] == pytest.approx(10.0)
        assert load_of["B->C"] == pytest.approx(14.0)
        assert load_of["C->D"] == pytest.approx(10.0)
        assert load_of["D->C"] == pytest.approx(0.0)

    def test_pair_order_mismatch_rejected(self, line_network):
        routing = build_routing_matrix(line_network)
        reordered = TrafficMatrix.zeros(list(reversed(routing.pairs)))
        with pytest.raises(MeasurementError):
            link_load_series(routing, TrafficMatrixSeries([reordered]))

    def test_series_computation(self, line_network):
        routing = build_routing_matrix(line_network)
        snapshots = [
            TrafficMatrix.from_network(line_network, {NodePair("A", "D"): float(k)})
            for k in range(1, 4)
        ]
        series = TrafficMatrixSeries(snapshots)
        loads = link_load_series(routing, series)
        assert loads.shape == (3, routing.num_links)
        index = list(routing.link_names).index("A->B")
        assert np.allclose(loads[:, index], [1.0, 2.0, 3.0])

    def test_series_pair_mismatch_rejected(self, line_network, triangle_network):
        routing = build_routing_matrix(line_network)
        series = TrafficMatrixSeries([TrafficMatrix.zeros(triangle_network.node_pairs())])
        with pytest.raises(MeasurementError):
            link_load_series(routing, series)

    def test_rows_are_the_per_snapshot_products(self, small_scenario_session):
        routing, series = small_scenario_session.routing, small_scenario_session.day_series
        loads = link_load_series(routing, series)
        assert loads.shape == (len(series), routing.num_links)
        for row, snapshot in zip(loads, series):
            np.testing.assert_array_equal(row, routing.link_loads(snapshot.vector))
