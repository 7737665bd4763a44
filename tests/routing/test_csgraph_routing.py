"""The csgraph next-hop routing kernel: parity, tie-breaks and fallback.

``ShortestPathRouter.route_table`` (and ``route_all`` / the default
``build_routing_matrix`` on top of it) routes every pair through one
batched :func:`scipy.sparse.csgraph.dijkstra` call and a vectorised walk
over a table of next hops per destination.  These tests pin the contract
that makes the kernel a faster router rather than a different one:

* route-for-route identity with the pure-python sweep — node sequences,
  link sequences *and* accumulated float costs — on the named scenarios,
  random backbones and both metric modes, including networks where node
  insertion order differs from node-name order (the tie-break ranks heads
  by name) and parallel equal-cost links;
* the routing matrix assembled from the walk equals the per-path assembly
  of the python routes, CSR arrays and fingerprint alike;
* a scipy missing the feature, or distances the walk cannot follow, fall
  back to the python sweep with a warning and identical results, on
  ``route_all`` and on ``build_routing_matrix``;
* with failed links masked out (:func:`~repro.routing.reroute`), the
  kernel's routes equal the per-pair python routes over the surviving
  topology (:func:`~repro.planning.full_rebuild_routing`), on the same
  name-order-sensitive networks.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.routing.shortest_path as shortest_path_module
from repro.errors import RoutingError
from repro.planning import enumerate_failures, full_rebuild_routing
from repro.routing.routing_matrix import build_routing_matrix, reroute
from repro.routing.shortest_path import (
    Path,
    ShortestPathRouter,
    single_source_shortest_paths,
)
from repro.topology.elements import Link, Node, NodePair, NodeRole
from repro.topology.generators import (
    abilene_backbone,
    american_backbone,
    european_backbone,
    random_backbone,
)
from repro.topology.network import Network

NAMED_BUILDERS = {
    "europe": european_backbone,
    "america": american_backbone,
    "abilene": abilene_backbone,
}

FALLBACK_WARNING = "falling back to the python Dijkstra sweep"


def sweep_routes(network, metric="metric", pairs=None):
    """The python reference: one :func:`single_source_shortest_paths` per origin."""

    def cost(link):
        return 1.0 if metric == "hops" else link.metric

    pairs = network.node_pairs() if pairs is None else pairs
    trees = {}
    routes = {}
    for pair in pairs:
        if pair.origin not in trees:
            trees[pair.origin] = single_source_shortest_paths(network, pair.origin, cost)
        nodes, links, total = trees[pair.origin][pair.destination]
        routes[pair] = Path(pair=pair, nodes=nodes, links=links, cost=total)
    return routes


def assert_identical_routes(actual, expected):
    assert list(actual) == list(expected)
    for pair, path in actual.items():
        other = expected[pair]
        assert path.nodes == other.nodes, pair
        assert path.link_names() == other.link_names(), pair
        assert path.cost == other.cost, pair


def assert_same_matrix(actual, expected):
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(
            getattr(actual.native, name), getattr(expected.native, name)
        )
    assert actual.fingerprint() == expected.fingerprint()


def reverse_alphabetical_network():
    """Nodes inserted in reverse name order, so index order != name order.

    ``A -> D`` costs 2 three ways: via ``C`` (the lower node index), via
    ``B`` (the smaller name, over either of two parallel equal-cost links)
    and via the transit node ``T``.  ``D -> F`` costs 2 directly or via
    ``E``.  ``C -> E`` has a slow and a fast parallel link, the fast one
    added last.  ``A -> F`` is cheapest through ``T``.
    """
    network = Network("reverse-alpha")
    for name in ("T", "F", "E", "D", "C", "B", "A"):
        role = NodeRole.TRANSIT if name == "T" else NodeRole.ACCESS
        network.add_node(Node(name=name, role=role))

    def link(source, target, metric, name):
        network.add_link(Link(source=source, target=target, metric=metric, name=name))
        network.add_link(Link(source=target, target=source, metric=metric, name=f"{name}~"))

    link("A", "C", 1.0, "A-C")
    link("C", "D", 1.0, "C-D")
    link("A", "B", 1.0, "A-B")
    link("B", "D", 1.0, "B-D/1")
    link("B", "D", 1.0, "B-D/2")
    link("A", "T", 0.5, "A-T")
    link("T", "D", 1.5, "T-D")
    link("T", "F", 1.0, "T-F")
    link("D", "E", 1.0, "D-E")
    link("E", "F", 1.0, "E-F")
    link("D", "F", 2.0, "D-F")
    link("C", "E", 3.0, "C-E/slow")
    link("C", "E", 1.0, "C-E/fast")
    return network


@pytest.mark.parametrize("metric", ["metric", "hops"])
@pytest.mark.parametrize("name", sorted(NAMED_BUILDERS))
def test_csgraph_matches_python_on_named_networks(name, metric):
    network = NAMED_BUILDERS[name]()
    routed = ShortestPathRouter(network, metric).route_all()
    assert_identical_routes(routed, sweep_routes(network, metric))


@pytest.mark.parametrize("seed", range(4))
def test_csgraph_matches_python_on_random_backbones(seed):
    network = random_backbone(40, avg_degree=3.0, seed=seed, name=f"rand-{seed}")
    for metric in ("metric", "hops"):
        routed = ShortestPathRouter(network, metric).route_all()
        assert_identical_routes(routed, sweep_routes(network, metric))


def test_csgraph_matches_python_on_pair_subsets():
    network = american_backbone()
    pairs = network.node_pairs()[:40]
    routed = ShortestPathRouter(network).route_all(pairs)
    assert_identical_routes(routed, sweep_routes(network, pairs=pairs))


@pytest.mark.parametrize("metric", ["metric", "hops"])
def test_name_order_tie_break_at_120_nodes(metric):
    # "P100".."P119" sort between "P10" and "P11": a kernel ranking heads by
    # node index instead of name would pick different equal-cost routes.
    network = random_backbone(120, avg_degree=3.0, seed=2004)
    names = list(network.node_names)
    assert names != sorted(names)
    routed = ShortestPathRouter(network, metric).route_all()
    assert_identical_routes(routed, sweep_routes(network, metric))


def test_routing_matrix_matches_per_path_assembly_at_120_nodes():
    network = random_backbone(120, avg_degree=3.0, seed=2004)
    assert_same_matrix(
        build_routing_matrix(network),
        build_routing_matrix(network, paths=sweep_routes(network)),
    )


def assert_reroute_matches_full_rebuild(network, cases):
    """Reroute equals the per-pair rebuild on the pairs it routed again.

    The rebuild runs on the rerouted pairs only (per-pair python Dijkstra
    over the surviving topology is slow at scale); the other columns are
    the base's, which :func:`test_routing_matrix_matches_per_path_assembly_at_120_nodes`
    already pins.
    """
    base = build_routing_matrix(network)
    for case in cases:
        matrix, result = reroute(base, case.failed_links, case.failed_nodes)
        if not result.rerouted:  # e.g. an unused parallel link
            assert matrix is base, case.name
            continue
        columns = [base.pair_index(pair) for pair in result.rerouted]
        full, infeasible = full_rebuild_routing(network, case, pairs=result.rerouted)
        assert result.infeasible == infeasible, case.name
        assert (matrix.native[:, columns] != full.native).nnz == 0, case.name
        kept = np.setdiff1d(np.arange(base.num_pairs), columns)
        assert (matrix.native[:, kept] != base.native[:, kept]).nnz == 0, case.name


def test_reroute_matches_full_rebuild_at_120_nodes():
    network = random_backbone(120, avg_degree=3.0, seed=2004)
    rng = np.random.default_rng(120)
    cases = []
    for kind in ("link", "link-pair", "node"):
        candidates = enumerate_failures(network, kinds=(kind,))
        cases += [candidates[i] for i in sorted(rng.choice(len(candidates), 2, replace=False))]
    assert_reroute_matches_full_rebuild(network, cases)


class TestReverseAlphabeticalNetwork:
    def test_reroute_matches_full_rebuild_on_every_case(self):
        network = reverse_alphabetical_network()
        cases = enumerate_failures(network, kinds=("link", "link-pair", "node"))
        assert_reroute_matches_full_rebuild(network, cases)

    @pytest.mark.parametrize("metric", ["metric", "hops"])
    def test_matches_python_sweep(self, metric):
        network = reverse_alphabetical_network()
        routed = ShortestPathRouter(network, metric).route_all()
        assert_identical_routes(routed, sweep_routes(network, metric))

    def test_tie_breaks_by_name_then_first_parallel_link(self):
        network = reverse_alphabetical_network()
        for metric in ("metric", "hops"):
            routed = ShortestPathRouter(network, metric).route_all()
            # "B" is the smallest name though the last of B, C, T inserted;
            # the first of the parallel equal-cost links wins.
            assert routed[NodePair("A", "D")].link_names() == ("A-B", "B-D/1")
        routed = ShortestPathRouter(network).route_all()
        # ("D", "E", "F") < ("D", "F"): the longer equal-cost path wins.
        assert routed[NodePair("D", "F")].nodes == ("D", "E", "F")
        assert routed[NodePair("C", "E")].link_names() == ("C-E/fast",)
        assert routed[NodePair("A", "F")].nodes == ("A", "T", "F")

    def test_routing_matrix_matches_per_path_assembly(self):
        network = reverse_alphabetical_network()
        assert_same_matrix(
            build_routing_matrix(network),
            build_routing_matrix(network, paths=sweep_routes(network)),
        )


def test_non_positive_cost_raises():
    network = european_backbone()
    with pytest.raises(RoutingError, match="non-positive cost"):
        shortest_path_module._next_hop_routes(
            network, network.node_pairs(), lambda link: 0.0
        )


def test_unreachable_pair_raises_without_fallback():
    network = Network("oneway")
    for name in ("A", "B", "C"):
        network.add_node(Node(name=name))
    network.add_link(Link(source="B", target="A", metric=1.0))
    network.add_link(Link(source="A", target="C", metric=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RoutingError, match="no path from 'A' to 'B'"):
            ShortestPathRouter(network).route_table([NodePair("B", "C"), NodePair("A", "B")])


class _DoubledCsgraph:
    """Finite distances with no next hop: a shortest-path link's slack is ``-w``."""

    @staticmethod
    def dijkstra(matrix, directed, indices):
        from scipy.sparse import csgraph

        return 2.0 * csgraph.dijkstra(matrix, directed=directed, indices=indices)


class _ZeroCsgraph:
    @staticmethod
    def dijkstra(matrix, directed, indices):
        # All-zero distances admit no next hop anywhere.
        return np.zeros((len(indices), matrix.shape[0]))


def assert_falls_back(monkeypatch, load_csgraph):
    """Routes and routing matrix equal the python sweep's, with the warning."""
    network = european_backbone()
    expected = sweep_routes(network)
    monkeypatch.setattr(shortest_path_module, "_load_csgraph", load_csgraph)
    with pytest.warns(RuntimeWarning, match=FALLBACK_WARNING):
        routed = ShortestPathRouter(network).route_all()
    assert_identical_routes(routed, expected)
    with pytest.warns(RuntimeWarning, match=FALLBACK_WARNING):
        matrix = build_routing_matrix(network)
    assert_same_matrix(matrix, build_routing_matrix(network, paths=expected))


def test_missing_csgraph_falls_back_with_warning(monkeypatch):
    def broken():
        raise ImportError("forced by test")

    assert_falls_back(monkeypatch, broken)


def test_divergent_distances_fall_back_with_warning(monkeypatch):
    """A csgraph whose tie handling drifts must not silently corrupt routes."""
    assert_falls_back(monkeypatch, lambda: _ZeroCsgraph)


def test_unfollowable_finite_distances_fall_back_with_warning(monkeypatch):
    assert_falls_back(monkeypatch, lambda: _DoubledCsgraph)


def test_cycle_within_tie_tolerance_falls_back_with_warning():
    # A <-> B costs less than the tie tolerance, so toward C each of A and B
    # admits the other as its next hop and the walk never arrives.
    network = Network("tolerance-cycle")
    for name in ("A", "B", "C"):
        network.add_node(Node(name=name))
    for source, target, metric in (
        ("A", "B", 1e-13),
        ("B", "A", 1e-13),
        ("A", "C", 1.0),
        ("B", "C", 1.0),
        ("C", "A", 1.0),
        ("C", "B", 1.0),
    ):
        network.add_link(Link(source=source, target=target, metric=metric))
    with pytest.warns(RuntimeWarning, match=FALLBACK_WARNING):
        routed = ShortestPathRouter(network).route_all()
    assert_identical_routes(routed, sweep_routes(network))
    assert routed[NodePair("A", "C")].nodes == ("A", "B", "C")


def test_healthy_scipy_emits_no_warning():
    network = random_backbone(64, avg_degree=3.0, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ShortestPathRouter(network).route_all()
        build_routing_matrix(network)
