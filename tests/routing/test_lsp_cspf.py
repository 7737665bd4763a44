"""Tests for LSPs, RSVP-style reservations and the CSPF router."""

from __future__ import annotations

import pytest

from repro.errors import RoutingError, TopologyError
from repro.routing import CSPFRouter, LSP, LSPMesh, ReservationState, ShortestPathRouter
from repro.topology import Link, Network, Node, NodePair


@pytest.fixture
def two_path_network() -> Network:
    """A and B connected by a short low-capacity path and a longer fat path."""
    network = Network("twopath")
    for name in ("A", "B", "C"):
        network.add_node(Node(name=name))
    network.add_bidirectional_link(Link(source="A", target="B", capacity_mbps=100.0, metric=1.0))
    network.add_bidirectional_link(Link(source="A", target="C", capacity_mbps=1000.0, metric=2.0))
    network.add_bidirectional_link(Link(source="C", target="B", capacity_mbps=1000.0, metric=2.0))
    return network


class TestLSP:
    def test_name_and_signalling(self, two_path_network):
        lsp = LSP(pair=NodePair("A", "B"), bandwidth_mbps=10.0)
        assert lsp.name == "lsp:A->B"
        assert lsp.path is None
        path = ShortestPathRouter(two_path_network).shortest_path(NodePair("A", "B"))
        lsp.signal(path)
        assert lsp.path is path

    def test_signal_with_wrong_endpoints_rejected(self, two_path_network):
        lsp = LSP(pair=NodePair("A", "B"))
        wrong = ShortestPathRouter(two_path_network).shortest_path(NodePair("A", "C"))
        with pytest.raises(RoutingError):
            lsp.signal(wrong)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(RoutingError):
            LSP(pair=NodePair("A", "B"), bandwidth_mbps=-1.0)

    def test_priority_range_enforced(self):
        with pytest.raises(RoutingError):
            LSP(pair=NodePair("A", "B"), setup_priority=8)


class TestReservationState:
    def test_reserve(self, two_path_network):
        state = ReservationState(two_path_network)
        path = ShortestPathRouter(two_path_network).shortest_path(NodePair("A", "B"))
        assert state.available("A->B") == pytest.approx(100.0)
        state.reserve(path, 60.0)
        assert state.snapshot()["A->B"] == pytest.approx(60.0)
        assert state.available("A->B") == pytest.approx(40.0)
        assert state.utilisation("A->B") == pytest.approx(0.6)

    def test_admission_failure_raises(self, two_path_network):
        state = ReservationState(two_path_network)
        path = ShortestPathRouter(two_path_network).shortest_path(NodePair("A", "B"))
        assert not state.can_admit(path, 200.0)
        with pytest.raises(RoutingError):
            state.reserve(path, 200.0)

    def test_oversubscription_scales_capacity(self, two_path_network):
        state = ReservationState(two_path_network, oversubscription=2.0)
        assert state.available("A->B") == pytest.approx(200.0)

    def test_unknown_link_rejected(self, two_path_network):
        state = ReservationState(two_path_network)
        with pytest.raises(TopologyError):
            state.available("Z->Z")
        with pytest.raises(TopologyError):
            state.utilisation("Z->Z")


class TestLSPMesh:
    def test_full_mesh_size(self, two_path_network):
        mesh = LSPMesh(two_path_network)
        assert len(mesh) == two_path_network.num_pairs
        assert all(lsp.bandwidth_mbps == 0.0 for lsp in mesh)

    def test_bandwidths_applied(self, two_path_network):
        pair = NodePair("A", "B")
        mesh = LSPMesh(two_path_network, bandwidths={pair: 42.0})
        assert mesh.lsp(pair).bandwidth_mbps == 42.0

    def test_unknown_pair_rejected(self, two_path_network):
        with pytest.raises(RoutingError):
            LSPMesh(two_path_network, bandwidths={NodePair("A", "Z"): 1.0})

    def test_signalled_paths_requires_all_signalled(self, two_path_network):
        mesh = LSPMesh(two_path_network)
        with pytest.raises(RoutingError):
            mesh.signalled_paths()


class TestCSPF:
    def test_degenerates_to_shortest_path_with_zero_bandwidth(self, two_path_network):
        router = CSPFRouter(two_path_network)
        path = router.constrained_shortest_path(NodePair("A", "B"), 0.0)
        assert path.nodes == ("A", "B")

    def test_detours_when_bandwidth_does_not_fit(self, two_path_network):
        router = CSPFRouter(two_path_network)
        path = router.constrained_shortest_path(NodePair("A", "B"), 500.0)
        assert path.nodes == ("A", "C", "B")

    def test_returns_none_when_infeasible(self, two_path_network):
        router = CSPFRouter(two_path_network)
        assert router.constrained_shortest_path(NodePair("A", "B"), 5000.0) is None

    def test_reservations_accumulate_across_lsps(self, two_path_network):
        router = CSPFRouter(two_path_network)
        first = LSP(pair=NodePair("A", "B"), bandwidth_mbps=80.0)
        second = LSP(pair=NodePair("A", "B"), bandwidth_mbps=80.0)
        router.signal_lsp(first)
        # Only 20 Mbit/s left on the direct link: the second LSP must detour.
        path = router.signal_lsp(second)
        assert path.nodes == ("A", "C", "B")

    def test_strict_mode_raises_on_infeasible(self, two_path_network):
        router = CSPFRouter(two_path_network, strict=True)
        lsp = LSP(pair=NodePair("A", "B"), bandwidth_mbps=5000.0)
        with pytest.raises(RoutingError):
            router.signal_lsp(lsp)

    def test_non_strict_falls_back_to_shortest_path(self, two_path_network):
        router = CSPFRouter(two_path_network, strict=False)
        lsp = LSP(pair=NodePair("A", "B"), bandwidth_mbps=5000.0)
        path = router.signal_lsp(lsp)
        assert path.nodes == ("A", "B")

    def test_signal_mesh_returns_all_paths(self, two_path_network):
        router = CSPFRouter(two_path_network)
        mesh = LSPMesh(two_path_network)
        paths = router.signal_mesh(mesh)
        assert set(paths) == set(two_path_network.node_pairs())

    def test_signal_mesh_rejects_foreign_mesh(self, two_path_network, triangle_network):
        router = CSPFRouter(two_path_network)
        with pytest.raises(RoutingError):
            router.signal_mesh(LSPMesh(triangle_network))

    def test_unknown_order_rejected(self, two_path_network):
        router = CSPFRouter(two_path_network)
        with pytest.raises(RoutingError):
            router.signal_mesh(LSPMesh(two_path_network), order="alphabetical")

    def test_route_all_returns_every_pair(self, two_path_network):
        paths = CSPFRouter(two_path_network).route_all()
        assert set(paths) == set(two_path_network.node_pairs())

    def test_route_all_takes_its_arguments_by_keyword(self, two_path_network):
        # A mapping passed positionally would be read as the pair subset.
        bandwidths = {NodePair("A", "B"): 500.0}
        with pytest.raises(TypeError):
            CSPFRouter(two_path_network).route_all(bandwidths)
        router = CSPFRouter(two_path_network)
        paths = router.route_all(bandwidths=bandwidths)
        assert set(paths) == set(two_path_network.node_pairs())
        # 500 Mbit/s does not fit the 100 Mbit/s direct link: it is reserved
        # along the longer fat path.
        assert [link.name for link in paths[NodePair("A", "B")].links] == ["A->C", "C->B"]
        assert router.reservations.snapshot()["A->C"] == 500.0
