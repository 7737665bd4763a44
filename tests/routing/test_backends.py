"""The routing matrix's CSR storage and operator products.

``RoutingMatrix`` stores ``R`` as one canonical CSR matrix and implements
the :class:`~repro.routing.RoutingOperator` products itself.  Every product,
the cached Gram matrices, the rank, the path lengths and the row/column
slices are checked against NumPy on the dense view ``routing.matrix`` for
the named scenarios and fractional ECMP matrices (half shares on Europe;
halves, thirds and two-thirds on America; halves, thirds, sixths and sums
of them on a grid); the constructor tests
pin the canonical form (duplicates summed, explicit zeros dropped) and the
input validation.  ``TestLinkGramPattern`` covers the link-Gram pattern's
degenerate inputs, its caching and its absence from pickles.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.sparse

from repro import telemetry
from repro.errors import RoutingError
from repro.routing import RoutingMatrix, build_ecmp_routing_matrix, reroute
from repro.topology import Link, Network, Node

ROUTINGS = ("europe", "abilene", "america", "ecmp-grid", "ecmp-europe", "ecmp-america")


def grid_network(side: int) -> Network:
    """A ``side x side`` grid with unit metrics: most pairs have several ECMP paths."""
    network = Network(f"grid-{side}")
    names = [[f"n{row}{col}" for col in range(side)] for row in range(side)]
    for row in names:
        for name in row:
            network.add_node(Node(name=name))
    for row in range(side):
        for col in range(side):
            if col + 1 < side:
                network.add_bidirectional_link(
                    Link(source=names[row][col], target=names[row][col + 1], metric=1.0)
                )
            if row + 1 < side:
                network.add_bidirectional_link(
                    Link(source=names[row][col], target=names[row + 1][col], metric=1.0)
                )
    return network


@pytest.fixture(scope="module", params=ROUTINGS)
def routing(request):
    import repro.datasets as datasets

    if request.param == "ecmp-grid":
        return build_ecmp_routing_matrix(grid_network(4))
    if request.param.startswith("ecmp-"):
        name = request.param.removeprefix("ecmp-")
        return build_ecmp_routing_matrix(getattr(datasets, f"{name}_scenario")().network)
    return getattr(datasets, f"{request.param}_scenario")().routing


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(17)


def test_ecmp_grid_is_fractional():
    routing = build_ecmp_routing_matrix(grid_network(4))
    fractions = routing.native.data
    assert np.any((fractions > 0.0) & (fractions < 1.0))
    assert np.any(fractions == 1.0 / 3.0)  # products of thirds round


def dyadic(routing) -> bool:
    """Whether every routing entry is a power of two (0/1 or halved shares)."""
    mantissas, _ = np.frexp(routing.native.data)
    return bool(np.all(mantissas == 0.5))


@pytest.fixture
def pattern_builds():
    """Telemetry on for the test; returns a count of link-Gram pattern builds."""
    telemetry.disable()
    telemetry.reset_telemetry()
    telemetry.enable()
    try:
        with telemetry.capture() as spans:
            yield lambda: sum(span.name == "routing.link_gram_pattern" for span in spans)
    finally:
        telemetry.disable()
        telemetry.reset_telemetry()


class TestProductsMatchNumpy:
    def test_matvec_and_rmatvec(self, routing, rng):
        dense = routing.matrix
        demands = rng.uniform(0.0, 10.0, routing.num_pairs)
        loads = rng.uniform(0.0, 10.0, routing.num_links)
        np.testing.assert_allclose(routing.matvec(demands), dense @ demands, rtol=1e-12)
        np.testing.assert_allclose(routing.link_loads(demands), dense @ demands, rtol=1e-12)
        np.testing.assert_allclose(routing.rmatvec(loads), dense.T @ loads, rtol=1e-12)

    def test_matmat_and_rmatmat(self, routing, rng):
        dense = routing.matrix
        demands = rng.uniform(0.0, 10.0, (routing.num_pairs, 3))
        loads = rng.uniform(0.0, 10.0, (routing.num_links, 3))
        product = routing.matmat(demands)
        assert isinstance(product, np.ndarray)
        np.testing.assert_allclose(product, dense @ demands, rtol=1e-12)
        np.testing.assert_allclose(routing.rmatmat(loads), dense.T @ loads, rtol=1e-12)

    def test_product_shapes_are_checked(self, routing):
        with pytest.raises(RoutingError):
            routing.matvec(np.ones(routing.num_pairs + 1))
        with pytest.raises(RoutingError):
            routing.rmatvec(np.ones(routing.num_pairs + routing.num_links))
        with pytest.raises(RoutingError):
            routing.matmat(np.ones(routing.num_pairs))
        with pytest.raises(RoutingError):
            routing.rmatmat(np.ones((routing.num_pairs + routing.num_links, 2)))

    def test_gram_is_cached_and_exact(self, routing):
        dense = routing.matrix
        gram = routing.gram()
        assert isinstance(gram, np.ndarray)
        assert routing.gram() is gram
        np.testing.assert_allclose(gram, dense.T @ dense, rtol=0, atol=1e-12)

    def test_link_gram(self, routing, rng):
        dense = routing.matrix
        # Multiples of 1/8 sum exactly in any order, so only the products of
        # the routing entries can round: never on dyadic shares, within
        # 1e-15 relative on thirds.
        weights = rng.integers(1, 64, routing.num_pairs) / 8.0
        link_gram = routing.link_gram(weights)
        expected = (dense * weights) @ dense.T
        if dyadic(routing):
            np.testing.assert_array_equal(link_gram, expected)
        else:
            np.testing.assert_allclose(link_gram, expected, rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(link_gram, link_gram.T)

    def test_link_gram_sums_pairs_in_ascending_order(self, routing, rng):
        # The CSR product (R W) R' sums each entry over the pairs in
        # ascending order, and so does the pattern: on dyadic shares the two
        # agree bit for bit whatever the weights.
        weights = rng.uniform(0.5, 2.0, routing.num_pairs)
        scaled = routing.native.copy()  # canonical: pairs ascending in each row
        scaled.data *= weights[scaled.indices]
        expected = (scaled @ routing.native.T).toarray()
        link_gram = routing.link_gram(weights)
        if dyadic(routing):
            np.testing.assert_array_equal(link_gram, expected)
        else:
            np.testing.assert_allclose(link_gram, expected, rtol=1e-15, atol=0.0)

    def test_rank(self, routing):
        assert routing.rank() == np.linalg.matrix_rank(routing.matrix)

    def test_path_lengths(self, routing):
        lengths = routing.path_lengths()
        np.testing.assert_allclose(lengths, routing.matrix.sum(axis=0), rtol=1e-12)
        assert not lengths.flags.writeable

    def test_rows_and_columns(self, routing):
        dense = routing.matrix
        for index in (0, routing.num_pairs // 2, routing.num_pairs - 1):
            np.testing.assert_array_equal(routing.pair_column(routing.pairs[index]), dense[:, index])

    def test_storage_is_canonical_csr(self, routing):
        native = routing.native
        assert scipy.sparse.isspmatrix_csr(native)
        assert native.has_canonical_format
        assert np.all(native.data != 0.0)
        np.testing.assert_array_equal(native.toarray(), routing.matrix)
        assert routing.matrix is routing.matrix
        size = routing.num_links * routing.num_pairs
        assert routing.density == pytest.approx(np.count_nonzero(routing.matrix) / size)


class TestConstructor:
    LINKS = ("a", "b")

    @pytest.fixture
    def pairs(self, triangle_network):
        return triangle_network.node_pairs()[:3]

    def test_coo_duplicates_are_summed_and_zeros_dropped(self, pairs):
        coo = scipy.sparse.coo_matrix(
            ([0.25, 0.5, 0.0, 1.0], ([0, 0, 1, 1], [2, 2, 0, 1])), shape=(2, 3)
        )
        routing = RoutingMatrix(coo, self.LINKS, pairs)
        np.testing.assert_array_equal(routing.matrix, [[0.0, 0.0, 0.75], [0.0, 1.0, 0.0]])
        assert routing.native.nnz == 2
        assert routing.native.has_canonical_format

    def test_csr_input_is_canonicalised_without_modifying_it(self, pairs):
        csr = scipy.sparse.csr_matrix(
            ([0.5, 0.0, 0.5], [1, 0, 1], [0, 3, 3]), shape=(2, 3)
        )
        routing = RoutingMatrix(csr, self.LINKS, pairs)
        assert csr.nnz == 3
        assert routing.native is not csr
        assert routing.native.has_canonical_format
        np.testing.assert_array_equal(routing.matrix, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        dense = RoutingMatrix(routing.matrix, self.LINKS, pairs)
        assert routing.fingerprint() == dense.fingerprint()

    def test_dense_coo_and_csr_inputs_agree(self, pairs):
        dense = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        routings = [
            RoutingMatrix(source, self.LINKS, pairs)
            for source in (dense, scipy.sparse.coo_matrix(dense), scipy.sparse.csr_matrix(dense))
        ]
        assert len({routing.fingerprint() for routing in routings}) == 1
        for routing in routings:
            np.testing.assert_array_equal(routing.matrix, dense)

    @pytest.mark.parametrize("value", [1.5, -0.5])
    def test_entries_outside_unit_interval_rejected(self, pairs, value):
        dense = np.array([[1.0, 0.0, value], [0.0, 1.0, 0.0]])
        with pytest.raises(RoutingError, match=r"\[0, 1\]"):
            RoutingMatrix(dense, self.LINKS, pairs)
        with pytest.raises(RoutingError, match=r"\[0, 1\]"):
            RoutingMatrix(scipy.sparse.coo_matrix(dense), self.LINKS, pairs)

    def test_duplicates_summing_above_one_rejected(self, pairs):
        coo = scipy.sparse.coo_matrix(([0.75, 0.75], ([0, 0], [1, 1])), shape=(2, 3))
        with pytest.raises(RoutingError, match=r"\[0, 1\]"):
            RoutingMatrix(coo, self.LINKS, pairs)

    def test_one_dimensional_input_rejected(self, pairs):
        with pytest.raises(RoutingError, match="two-dimensional"):
            RoutingMatrix(np.ones(3), ["a"], pairs)

    def test_shape_mismatch_rejected(self, pairs):
        with pytest.raises(RoutingError, match="does not match"):
            RoutingMatrix(np.zeros((2, 3)), ["a", "b", "c"], pairs)
        with pytest.raises(RoutingError, match="does not match"):
            RoutingMatrix(scipy.sparse.csr_matrix((2, 2)), self.LINKS, pairs)


class TestLinkGramPattern:
    LINKS = ("a", "b", "c")

    def test_zero_column_and_one_link_path(self, triangle_network):
        pairs = triangle_network.node_pairs()[:4]
        dense = np.array(
            [[1.0, 0.0, 0.0, 0.5], [0.0, 0.0, 1.0, 0.5], [1.0, 0.0, 0.0, 0.0]]
        )  # pair 1 crosses no link, pair 2 one
        routing = RoutingMatrix(dense, self.LINKS, pairs)
        weights = np.array([3.0, 5.0, 7.0, 2.0])
        np.testing.assert_array_equal(routing.link_gram(weights), (dense * weights) @ dense.T)
        assert routing.rank() == np.linalg.matrix_rank(dense)

    def test_no_pairs(self):
        routing = RoutingMatrix(np.zeros((3, 0)), self.LINKS, [])
        np.testing.assert_array_equal(routing.link_gram(np.zeros(0)), np.zeros((3, 3)))
        assert routing.rank() == 0

    def test_pattern_is_built_once(self, pattern_builds):
        import repro.datasets as datasets

        routing = datasets.europe_scenario().routing
        weights = np.linspace(0.5, 2.0, routing.num_pairs)
        first = routing.link_gram(weights)
        assert pattern_builds() == 1
        second = routing.link_gram(weights)
        routing.rank()
        assert pattern_builds() == 1
        np.testing.assert_array_equal(first, second)
        assert first is not second  # a fresh array the caller may modify

    def test_reroute_builds_its_own_pattern(self, pattern_builds):
        import repro.datasets as datasets

        base = datasets.europe_scenario().routing
        weights = np.linspace(0.5, 2.0, base.num_pairs)
        before = base.link_gram(weights)
        busiest = int(np.argmax(np.diff(base.native.indptr)))
        failed, result = reroute(base, failed_links=[base.link_names[busiest]])
        assert result.rerouted and failed is not base
        rerouted = failed.link_gram(weights)
        assert pattern_builds() == 2
        dense = failed.matrix
        np.testing.assert_allclose(rerouted, (dense * weights) @ dense.T, rtol=1e-15, atol=0.0)
        assert not np.array_equal(rerouted, before)
        np.testing.assert_array_equal(base.link_gram(weights), before)
        assert pattern_builds() == 2

    def test_pickle_carries_no_cache(self, routing):
        fresh = RoutingMatrix(routing.native, routing.link_names, routing.pairs, routing.network)
        size = len(pickle.dumps(fresh))
        weights = np.ones(fresh.num_pairs)
        link_gram = fresh.link_gram(weights)
        fresh.matrix, fresh.gram(), fresh.rank(), fresh.path_lengths(), fresh.fingerprint()
        assert len(pickle.dumps(fresh)) <= size
        restored = pickle.loads(pickle.dumps(fresh))
        assert restored.fingerprint() == fresh.fingerprint()
        np.testing.assert_array_equal(restored.link_gram(weights), link_gram)
