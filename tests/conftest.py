"""Shared fixtures for the test suite.

The fixtures provide three classes of objects:

* **hand-built tiny networks** whose routing and traffic can be verified by
  hand (``triangle_network``, ``line_network``);
* a **small synthetic scenario** (module-scoped, deterministic) used by the
  estimation and evaluation tests;
* convenience traffic matrices and estimation problems derived from them.
"""

from __future__ import annotations

import pytest

from repro.datasets import large_scenario, small_scenario
from repro.routing import build_routing_matrix
from repro.topology import Link, Network, Node, NodePair, NodeRole
from repro.traffic import TrafficMatrix


@pytest.fixture
def triangle_network() -> Network:
    """Three access PoPs fully meshed with unit metrics.

    Every demand is routed over its direct link, so the routing matrix is a
    permutation-like 0/1 matrix that makes analytic verification trivial.
    """
    network = Network("triangle")
    for name in ("A", "B", "C"):
        network.add_node(Node(name=name, role=NodeRole.ACCESS, population=1.0))
    for a, b in (("A", "B"), ("B", "C"), ("A", "C")):
        network.add_bidirectional_link(Link(source=a, target=b, capacity_mbps=1000.0, metric=1.0))
    return network


@pytest.fixture
def line_network() -> Network:
    """Four nodes in a line A - B - C - D (B and C are transit-capable).

    Demands between the end nodes must traverse the interior links, which
    exercises multi-hop routing and makes the estimation problem genuinely
    under-determined.
    """
    network = Network("line")
    for name in ("A", "B", "C", "D"):
        network.add_node(Node(name=name, role=NodeRole.ACCESS, population=1.0))
    for a, b in (("A", "B"), ("B", "C"), ("C", "D")):
        network.add_bidirectional_link(Link(source=a, target=b, capacity_mbps=1000.0, metric=1.0))
    return network


@pytest.fixture
def triangle_routing(triangle_network):
    """Routing matrix of the triangle network (shortest path)."""
    return build_routing_matrix(triangle_network)


@pytest.fixture
def triangle_traffic(triangle_network) -> TrafficMatrix:
    """A hand-written traffic matrix on the triangle network."""
    demands = {
        NodePair("A", "B"): 100.0,
        NodePair("B", "A"): 80.0,
        NodePair("A", "C"): 60.0,
        NodePair("C", "A"): 40.0,
        NodePair("B", "C"): 20.0,
        NodePair("C", "B"): 10.0,
    }
    return TrafficMatrix.from_network(triangle_network, demands)


@pytest.fixture(scope="session")
def small_scenario_session():
    """A deterministic small scenario shared across the estimation tests.

    Session-scoped because building it involves routing and generating a
    traffic series; tests must not mutate it.
    """
    return small_scenario(seed=11, num_nodes=6, busy_length=20, num_samples=60)


@pytest.fixture(scope="session")
def small_snapshot_problem(small_scenario_session):
    """Snapshot estimation problem for the small scenario's busy-mean matrix."""
    return small_scenario_session.snapshot_problem()


@pytest.fixture(scope="session")
def small_truth(small_scenario_session) -> TrafficMatrix:
    """Ground-truth busy-period mean matrix of the small scenario."""
    return small_scenario_session.busy_mean_matrix()


@pytest.fixture(scope="session")
def large_scenario_60():
    """A 60-PoP generated backbone (3,540 demands); tests must not mutate it."""
    return large_scenario(60, seed=3)

