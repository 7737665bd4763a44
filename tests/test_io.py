"""Round-trip tests for the JSON serialisation module."""

from __future__ import annotations

import numpy as np
import pytest

from repro import io
from repro.errors import ReproError
from repro.routing import build_routing_matrix
from repro.topology import LinkKind, NodeRole, PairIndex
from repro.traffic import TrafficMatrixSeries


class TestNetworkRoundTrip:
    def test_nodes_links_and_attributes_preserved(self, triangle_network):
        data = io.network_to_dict(triangle_network)
        rebuilt = io.network_from_dict(data)
        assert rebuilt.name == triangle_network.name
        assert rebuilt.node_names == triangle_network.node_names
        assert rebuilt.link_names == triangle_network.link_names
        for name in triangle_network.link_names:
            original, copy = triangle_network.link(name), rebuilt.link(name)
            assert copy.capacity_mbps == original.capacity_mbps
            assert copy.metric == original.metric
            assert copy.kind is original.kind

    def test_roles_and_regions_preserved(self, small_scenario_session):
        network = small_scenario_session.network
        rebuilt = io.network_from_dict(io.network_to_dict(network))
        for node in network.nodes:
            copy = rebuilt.node(node.name)
            assert copy.role is node.role
            assert copy.population == node.population
            assert copy.region == node.region

    def test_wrong_format_rejected(self, triangle_network):
        data = io.network_to_dict(triangle_network)
        data["format"] = "something-else"
        with pytest.raises(ReproError):
            io.network_from_dict(data)


class TestTrafficRoundTrip:
    def test_matrix_round_trip(self, triangle_traffic):
        rebuilt = io.traffic_matrix_from_dict(io.traffic_matrix_to_dict(triangle_traffic))
        assert rebuilt.pairs == triangle_traffic.pairs
        assert np.allclose(rebuilt.vector, triangle_traffic.vector)

    def test_series_round_trip(self, triangle_traffic):
        series = TrafficMatrixSeries(
            [triangle_traffic, triangle_traffic.scaled(2.0)],
            interval_seconds=300.0,
            start_time_seconds=600.0,
        )
        rebuilt = io.series_from_dict(io.series_to_dict(series))
        assert len(rebuilt) == 2
        assert rebuilt.interval_seconds == 300.0
        assert rebuilt.start_time_seconds == 600.0
        assert np.allclose(rebuilt.as_array(), series.as_array())

    def test_series_snapshots_share_one_index(self, triangle_traffic):
        series = TrafficMatrixSeries([triangle_traffic.scaled(k) for k in (1.0, 2.0, 3.0)])
        rebuilt = io.series_from_dict(io.series_to_dict(series))
        assert isinstance(rebuilt.pairs, PairIndex)
        assert rebuilt.pairs == series.pairs
        assert all(snapshot.pairs is rebuilt.pairs for snapshot in rebuilt)
        assert rebuilt.mean_matrix().pairs is rebuilt.pairs

    def test_wrong_format_rejected(self, triangle_traffic):
        data = io.traffic_matrix_to_dict(triangle_traffic)
        data["format"] = "repro.network/1"
        with pytest.raises(ReproError):
            io.traffic_matrix_from_dict(data)


class TestRoutingRoundTrip:
    def test_matrix_and_labels_preserved(self, line_network):
        routing = build_routing_matrix(line_network)
        rebuilt = io.routing_matrix_from_dict(io.routing_matrix_to_dict(routing))
        assert rebuilt.link_names == routing.link_names
        assert rebuilt.pairs == routing.pairs
        assert np.allclose(rebuilt.matrix, routing.matrix)

    def test_sparse_encoding_only_stores_nonzeros(self, line_network):
        routing = build_routing_matrix(line_network)
        data = io.routing_matrix_to_dict(routing)
        assert len(data["entries"]) == int(np.count_nonzero(routing.matrix))

    @pytest.mark.parametrize("builder", ["europe_scenario", "america_scenario"])
    def test_dict_equals_the_dense_view_encoding(self, builder):
        import repro.datasets as datasets

        routing = getattr(datasets, builder)().routing
        dense = routing.matrix
        rows, cols = np.nonzero(dense)
        expected = {
            "format": "repro.routing-matrix/1",
            "link_names": list(routing.link_names),
            "pairs": [[pair.origin, pair.destination] for pair in routing.pairs],
            "entries": [[int(r), int(c), float(dense[r, c])] for r, c in zip(rows, cols)],
        }
        assert io.routing_matrix_to_dict(routing) == expected

    def test_large_round_trip_never_builds_the_dense_view(self, monkeypatch):
        from repro.datasets import large_scenario
        from repro.routing import RoutingMatrix

        routing = large_scenario(120, seed=2004, num_samples=4, busy_length=2).routing

        def refuse(self):
            raise AssertionError("the dense routing view was built")

        monkeypatch.setattr(RoutingMatrix, "matrix", property(refuse))
        rebuilt = io.routing_matrix_from_dict(io.routing_matrix_to_dict(routing))
        assert rebuilt.link_names == routing.link_names
        assert rebuilt.pairs == routing.pairs
        assert rebuilt.fingerprint() == routing.fingerprint()
        assert (rebuilt.native != routing.native).nnz == 0


class TestFilesAndScenario:
    def test_save_and_load_json(self, tmp_path, triangle_network):
        path = tmp_path / "nested" / "net.json"
        io.save_json(io.network_to_dict(triangle_network), path)
        loaded = io.load_json(path)
        assert loaded["name"] == "triangle"

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError):
            io.load_json(tmp_path / "missing.json")

    def test_scenario_round_trip(self, tmp_path, small_scenario_session):
        path = tmp_path / "scenario.json"
        io.save_scenario(small_scenario_session, path)
        rebuilt = io.load_scenario(path)
        assert rebuilt.name == small_scenario_session.name
        assert rebuilt.busy_length == small_scenario_session.busy_length
        assert np.allclose(
            rebuilt.day_series.as_array(), small_scenario_session.day_series.as_array()
        )
        assert np.allclose(rebuilt.routing.matrix, small_scenario_session.routing.matrix)
        # The reloaded scenario supports the full downstream workflow.
        problem = rebuilt.snapshot_problem()
        assert problem.num_pairs == small_scenario_session.routing.num_pairs
