"""``PairIndex.mesh`` against the generic index over the same pair enumeration.

``Network.node_pairs`` builds its index with :meth:`PairIndex.mesh`, which
computes codes and cells arithmetically and creates the pairs without the
per-pair checks.  The reference is what the network built before: the
generic :class:`PairIndex` over every ordered pair of distinct edge nodes.
Pairs, labels, codes and cells must be equal, and each pair must carry the
same state as one built by ``NodePair(origin, destination)``.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.datasets import large_scenario
from repro.errors import TopologyError
from repro.topology import Link, Network, Node, NodePair, NodeRole, PairIndex
from repro.topology.generators import abilene_backbone, american_backbone, european_backbone


def generic_index(names) -> PairIndex:
    """The full mesh through the generic constructor, pair by pair."""
    return PairIndex(
        NodePair(origin, destination)
        for origin in names
        for destination in names
        if origin != destination
    )


def assert_same_index(mesh: PairIndex, reference: PairIndex) -> None:
    assert isinstance(mesh, PairIndex)
    assert mesh == reference
    assert [vars(pair) for pair in mesh] == [vars(pair) for pair in reference]
    assert pickle.dumps(mesh) == pickle.dumps(reference)
    origins, destinations, origin_codes, destination_codes = mesh.codes()
    ref_origins, ref_destinations, ref_origin_codes, ref_destination_codes = reference.codes()
    assert origins == ref_origins
    assert destinations == ref_destinations
    for array, expected in (
        (origin_codes, ref_origin_codes),
        (destination_codes, ref_destination_codes),
        (mesh.cells(), reference.cells()),
    ):
        assert array.dtype == expected.dtype
        np.testing.assert_array_equal(array, expected)
        assert not array.flags.writeable


def transit_network(edge_count: int) -> Network:
    """A line of ``edge_count`` access nodes between two transit nodes."""
    network = Network(f"transit-{edge_count}")
    network.add_node(Node(name="T1", role=NodeRole.TRANSIT))
    for index in range(edge_count):
        network.add_node(Node(name=f"E{index}"))
    network.add_node(Node(name="T2", role=NodeRole.TRANSIT))
    names = network.node_names
    for source, target in zip(names, names[1:]):
        network.add_bidirectional_link(Link(source=source, target=target))
    return network


NETWORKS = {
    "europe": european_backbone,
    "america": american_backbone,
    "abilene": abilene_backbone,
    "large-60": lambda: large_scenario(60, 7).network,
    "transit-0": lambda: transit_network(0),
    "transit-1": lambda: transit_network(1),
    "transit-2": lambda: transit_network(2),
    "transit-5": lambda: transit_network(5),
}


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_node_pairs_equal_the_generic_index(name):
    network = NETWORKS[name]()
    edge_names = [node.name for node in network.edge_nodes]
    assert_same_index(network.node_pairs(), generic_index(edge_names))
    assert len(network.node_pairs()) == network.num_pairs


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_small_meshes(count):
    names = [f"N{index}" for index in range(count)]
    mesh = PairIndex.mesh(names)
    assert_same_index(mesh, generic_index(names))
    if count < 2:
        assert mesh == () and mesh.codes()[:2] == ((), ())


def test_destination_labels_rotate_the_names():
    origins, destinations, _, destination_codes = PairIndex.mesh(["A", "B", "C"]).codes()
    assert origins == ("A", "B", "C")
    assert destinations == ("B", "C", "A")
    # A->B, A->C, B->A, B->C, C->A, C->B
    assert destination_codes.tolist() == [0, 1, 2, 1, 2, 0]


@pytest.mark.parametrize("names", [["A", ""], ["", "B", "C"], ["A", "B", "A"], ["A", "A"]])
def test_empty_or_repeated_names_rejected(names):
    with pytest.raises(TopologyError):
        PairIndex.mesh(names)


#: Prints the bytes a 60-name index holds, built in a fresh interpreter.
MEMORY_PROBE = """
import sys, tracemalloc
import numpy as np
from repro.topology.elements import NodePair, PairIndex
np.unique(np.arange(3))  # its lazy imports are not the index's memory
names = [f"N{index}" for index in range(60)]
tracemalloc.start()
if sys.argv[1] == "mesh":
    index = PairIndex.mesh(names)
else:
    index = PairIndex(NodePair(o, d) for o in names for d in names if o != d)
print(tracemalloc.get_traced_memory()[0])
"""


def test_mesh_pairs_take_no_more_memory_than_constructed_ones():
    """Before any pair exists, so the class has seen no attribute set yet."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    held = {
        kind: int(
            subprocess.run(
                [sys.executable, "-c", MEMORY_PROBE, kind],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
        )
        for kind in ("mesh", "generic")
    }
    assert held["mesh"] <= 1.05 * held["generic"]
