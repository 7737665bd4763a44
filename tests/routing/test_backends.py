"""The routing matrix's CSR storage and operator products.

``RoutingMatrix`` stores ``R`` as one canonical CSR matrix and implements
the :class:`~repro.routing.RoutingOperator` products itself.  Every product,
the cached Gram matrices, the rank, the path lengths and the row/column
slices are checked against NumPy on the dense view ``routing.matrix`` for
the named scenarios and a fractional ECMP matrix; the constructor tests pin
the canonical form (duplicates summed, explicit zeros dropped) and the
input validation.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse

from repro.errors import RoutingError
from repro.routing import RoutingMatrix, build_ecmp_routing_matrix
from repro.topology import Link, Network, Node

ROUTINGS = ("europe", "abilene", "america", "ecmp-grid")


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
    return getattr(datasets, f"{request.param}_scenario")().routing


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(17)


def test_ecmp_grid_is_fractional():
    routing = build_ecmp_routing_matrix(grid_network(4))
    fractions = routing.native.data
    assert np.any((fractions > 0.0) & (fractions < 1.0))


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
        weights = rng.uniform(0.5, 2.0, routing.num_pairs)
        np.testing.assert_allclose(
            routing.link_gram(weights), (dense * weights) @ dense.T, rtol=1e-12, atol=1e-12
        )

    def test_rank(self, routing):
        assert routing.rank() == np.linalg.matrix_rank(routing.matrix)
        assert routing.nullity() == routing.num_pairs - routing.rank()

    def test_path_lengths(self, routing):
        lengths = routing.path_lengths()
        np.testing.assert_allclose(lengths, routing.matrix.sum(axis=0), rtol=1e-12)
        assert not lengths.flags.writeable
        pair = routing.pairs[-1]
        assert routing.path_length(pair) == pytest.approx(lengths[-1])

    def test_rows_and_columns(self, routing):
        dense = routing.matrix
        for index in (0, routing.num_links // 2, routing.num_links - 1):
            np.testing.assert_array_equal(routing.link_row(routing.link_names[index]), dense[index])
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
