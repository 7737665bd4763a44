"""Tests for the distributed collector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measurement import DistributedCollector, counter_names
from repro.routing import build_routing_matrix
from repro.topology import NodePair
from repro.traffic import TrafficMatrix, TrafficMatrixSeries


@pytest.fixture
def line_series(line_network):
    snapshots = [
        TrafficMatrix.from_network(
            line_network, {NodePair("A", "D"): 100.0 + 10.0 * k, NodePair("D", "A"): 50.0}
        )
        for k in range(4)
    ]
    return TrafficMatrixSeries(snapshots)


class TestDistributedCollector:
    def test_end_to_end_reconstruction(self, line_network, line_series):
        routing = build_routing_matrix(line_network)
        collector = DistributedCollector(
            routing, num_pollers=2, jitter_std_seconds=0.0, loss_probability=0.0, seed=1
        )
        collector.collect(line_series)

        measured = collector.measured_traffic_series()
        assert len(measured) == len(line_series)
        truth = line_series.as_array()
        recovered = measured.as_array()
        assert np.allclose(recovered, truth, rtol=1e-6, atol=1e-3)

        loads = collector.measured_link_loads()
        assert loads.shape == (len(line_series), routing.num_links)
        expected = routing.link_loads(line_series[0].vector)
        assert np.allclose(loads[0], expected, rtol=1e-6, atol=1e-3)

    def test_reconstruction_with_jitter_and_loss(self, line_network, line_series):
        routing = build_routing_matrix(line_network)
        collector = DistributedCollector(
            routing, num_pollers=3, jitter_std_seconds=2.0, loss_probability=0.1, seed=2
        )
        collector.collect(line_series)
        measured = collector.measured_traffic_series()
        assert np.allclose(measured.as_array(), line_series.as_array(), rtol=0.15, atol=1.0)

    def test_pair_mismatch_rejected(self, line_network, triangle_network):
        routing = build_routing_matrix(line_network)
        collector = DistributedCollector(routing, seed=3)
        series = TrafficMatrixSeries([TrafficMatrix.zeros(triangle_network.node_pairs())])
        with pytest.raises(MeasurementError):
            collector.collect(series)

    def test_at_least_one_poller_required(self, line_network):
        routing = build_routing_matrix(line_network)
        with pytest.raises(MeasurementError):
            DistributedCollector(routing, num_pollers=0)

    def test_objects_spread_over_pollers(self, line_network):
        routing = build_routing_matrix(line_network)
        collector = DistributedCollector(routing, num_pollers=3, seed=4)
        per_poller = [len(p.object_names) for p in collector.pollers]
        assert sum(per_poller) == routing.num_pairs + routing.num_links
        assert max(per_poller) - min(per_poller) <= 1

    def test_measured_timestamps_are_interval_starts(self, line_network, line_series):
        routing = build_routing_matrix(line_network)

        def make_collector():
            return DistributedCollector(
                routing, num_pollers=1, jitter_std_seconds=0.0, loss_probability=0.0, seed=1
            )

        collector = make_collector()
        collector.collect(line_series)
        (polls,) = make_collector().poll_matrices(line_series)
        # The rate of interval k is derived from the polls at
        # start + k * interval and start + (k+1) * interval; its snapshot
        # carries the first of the two.
        expected = 300.0 * np.arange(len(line_series) + 1)
        np.testing.assert_array_equal(polls.scheduled_times, expected)
        np.testing.assert_array_equal(
            collector.measured_traffic_series().timestamps(), expected[:-1]
        )

    def test_measured_series_aligns_with_driving_series(self, line_network):
        routing = build_routing_matrix(line_network)
        start = 18 * 3600.0
        snapshots = [
            TrafficMatrix.from_network(
                line_network, {NodePair("A", "D"): 100.0 + 10.0 * k}
            )
            for k in range(4)
        ]
        series = TrafficMatrixSeries(snapshots, start_time_seconds=start)
        collector = DistributedCollector(
            routing, num_pollers=2, jitter_std_seconds=0.0, loss_probability=0.0, seed=1
        )
        # start_time defaults to the series' own start time.
        collector.collect(series)
        measured = collector.measured_traffic_series()
        assert np.allclose(measured.timestamps(), series.timestamps())
        truth = series.as_array()
        assert np.allclose(measured.as_array(), truth, rtol=1e-6, atol=1e-3)

    def test_interval_mismatch_rejected(self, line_network, line_series):
        routing = build_routing_matrix(line_network)
        collector = DistributedCollector(routing, interval_seconds=60.0, seed=1)
        with pytest.raises(MeasurementError, match="interval"):
            collector.collect(line_series)

    def test_collection_diagnostics_cover_all_objects(self, line_network, line_series):
        routing = build_routing_matrix(line_network)
        collector = DistributedCollector(
            routing, num_pollers=3, jitter_std_seconds=2.0, loss_probability=0.2, seed=2
        )
        with pytest.raises(MeasurementError):
            collector.collection_diagnostics()
        collector.collect(line_series)
        diagnostics = collector.collection_diagnostics()
        assert diagnostics.num_objects == routing.num_pairs + routing.num_links
        assert diagnostics.num_intervals == len(line_series)
        assert diagnostics.lost_samples > 0
        assert diagnostics.interpolated_samples >= diagnostics.lost_samples

    def test_max_interpolated_fraction_enforced(self, line_network, line_series):
        routing = build_routing_matrix(line_network)
        collector = DistributedCollector(
            routing,
            num_pollers=1,
            jitter_std_seconds=0.0,
            loss_probability=0.3,
            seed=6,
            max_interpolated_fraction=0.1,
        )
        with pytest.raises(MeasurementError, match="interpolated"):
            collector.collect(line_series)

    def test_explicit_start_time_overrides_the_series_start(self, line_network, line_series):
        routing = build_routing_matrix(line_network)
        collector = DistributedCollector(
            routing, num_pollers=2, jitter_std_seconds=0.0, loss_probability=0.0, seed=1
        )
        collector.collect(line_series, start_time=3600.0)
        measured = collector.measured_traffic_series()
        np.testing.assert_array_equal(
            measured.timestamps(), 3600.0 + 300.0 * np.arange(len(line_series))
        )

    def test_counter_names_follow_pair_and_link_order(self, line_network):
        routing = build_routing_matrix(line_network)
        names = counter_names(routing)
        assert names == tuple(
            f"lsp:{pair.origin}->{pair.destination}" for pair in routing.pairs
        ) + tuple(routing.link_names)
        collector = DistributedCollector(routing, num_pollers=2, seed=1)
        polled = [name for poller in collector.pollers for name in poller.object_names]
        assert sorted(polled) == sorted(names)

    def test_measured_link_loads_are_a_fresh_copy(self, line_network, line_series):
        collector = DistributedCollector(build_routing_matrix(line_network), seed=1)
        collector.collect(line_series)
        loads = collector.measured_link_loads()
        expected = loads.copy()
        loads[:] = -1.0
        np.testing.assert_array_equal(collector.measured_link_loads(), expected)

    def test_measured_link_loads_are_column_major(self, line_network, line_series):
        # The rates are stored object-major; busy-window means sum each
        # link's column, and their last bits depend on this layout.
        collector = DistributedCollector(build_routing_matrix(line_network), seed=1)
        collector.collect(line_series)
        loads = collector.measured_link_loads()
        assert loads.shape == (len(line_series), collector.routing.num_links)
        assert loads.flags.f_contiguous and not loads.flags.c_contiguous

    def test_measured_data_need_a_collection(self, line_network):
        collector = DistributedCollector(build_routing_matrix(line_network), seed=1)
        with pytest.raises(MeasurementError, match="no collection"):
            collector.measured_traffic_series()
        with pytest.raises(MeasurementError, match="no collection"):
            collector.measured_link_loads()

    def test_second_collect_replaces_measured_data(self, line_network, line_series):
        routing = build_routing_matrix(line_network)
        collector = DistributedCollector(
            routing, num_pollers=2, jitter_std_seconds=0.0, loss_probability=0.0, seed=1
        )
        collector.collect(line_series)
        shorter = TrafficMatrixSeries(
            [TrafficMatrix(s.pairs, 2.0 * s.vector) for s in line_series][:3],
            start_time_seconds=line_series.start_time_seconds + 1200.0,
        )
        collector.collect(shorter)

        measured = collector.measured_traffic_series()
        assert len(measured) == 3
        np.testing.assert_allclose(measured.as_array(), shorter.as_array(), rtol=1e-6, atol=1e-3)
        np.testing.assert_array_equal(measured.timestamps(), shorter.timestamps())
        loads = collector.measured_link_loads()
        assert loads.shape == (3, routing.num_links)
        np.testing.assert_allclose(
            loads[0], routing.link_loads(shorter[0].vector), rtol=1e-6, atol=1e-3
        )
        assert collector.collection_diagnostics().num_intervals == 3
