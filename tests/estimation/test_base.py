"""Tests for EstimationProblem / EstimationResult / Estimator plumbing."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from repro.errors import EstimationError
from repro.estimation import EstimationProblem, Estimator, get_estimator
from repro.routing import build_routing_matrix
from repro.topology import NodePair
from repro.traffic import TrafficMatrix


class TestEstimationProblem:
    def test_snapshot_problem_basics(self, line_network):
        routing = build_routing_matrix(line_network)
        traffic = TrafficMatrix.from_network(line_network, {NodePair("A", "D"): 10.0})
        loads = routing.link_loads(traffic.vector)
        problem = EstimationProblem(routing=routing, link_loads=loads)
        assert problem.num_pairs == routing.num_pairs
        assert problem.num_snapshots == 1
        assert np.allclose(problem.snapshot, loads)
        with pytest.raises(EstimationError):
            _ = problem.series

    def test_series_problem_defaults_snapshot_to_mean(self, line_network):
        routing = build_routing_matrix(line_network)
        series = np.stack([np.ones(routing.num_links), 3 * np.ones(routing.num_links)])
        problem = EstimationProblem(routing=routing, link_load_series=series)
        assert problem.num_snapshots == 2
        assert np.allclose(problem.snapshot, 2.0)

    def test_requires_some_load_information(self, triangle_routing):
        with pytest.raises(EstimationError):
            EstimationProblem(routing=triangle_routing)

    def test_shape_validation(self, triangle_routing):
        with pytest.raises(EstimationError):
            EstimationProblem(routing=triangle_routing, link_loads=np.ones(3))
        with pytest.raises(EstimationError):
            EstimationProblem(routing=triangle_routing, link_load_series=np.ones((2, 3)))
        with pytest.raises(EstimationError):
            EstimationProblem(
                routing=triangle_routing,
                link_loads=np.ones(triangle_routing.num_links),
                origin_totals_series=np.ones((2, 3)),
            )

    def test_negative_loads_rejected(self, triangle_routing):
        with pytest.raises(EstimationError):
            EstimationProblem(
                routing=triangle_routing, link_loads=-np.ones(triangle_routing.num_links)
            )

    def test_total_traffic_from_origin_totals(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing,
            link_loads=np.ones(triangle_routing.num_links),
            origin_totals={"A": 5.0, "B": 3.0, "C": 2.0},
        )
        assert problem.total_traffic() == pytest.approx(10.0)

    def test_total_traffic_fallback_uses_path_lengths(self, triangle_network, triangle_routing):
        traffic = TrafficMatrix.from_network(
            triangle_network, {NodePair("A", "B"): 6.0, NodePair("B", "C"): 4.0}
        )
        loads = triangle_routing.link_loads(traffic.vector)
        problem = EstimationProblem(routing=triangle_routing, link_loads=loads)
        # Every pair is a single hop in the triangle, so the fallback is exact.
        assert problem.total_traffic() == pytest.approx(10.0)

    def test_augmented_system_adds_total_rows(self, line_network):
        routing = build_routing_matrix(line_network)
        traffic = TrafficMatrix.from_network(
            line_network, {NodePair("A", "D"): 10.0, NodePair("D", "A"): 4.0}
        )
        problem = EstimationProblem(
            routing=routing,
            link_loads=routing.link_loads(traffic.vector),
            origin_totals=traffic.origin_totals(),
            destination_totals=traffic.destination_totals(),
        )
        matrix, rhs = problem.augmented_system()
        num_origins = len(set(p.origin for p in routing.pairs))
        num_destinations = len(set(p.destination for p in routing.pairs))
        assert matrix.shape[0] == routing.num_links + num_origins + num_destinations
        # The augmented system must be consistent with the true demands.
        assert np.allclose(matrix @ traffic.vector, rhs)


class TestAugmentedSystem:
    """The edge-total rows are built as CSR straight from the pair codes."""

    def test_equals_the_dense_block_stack_on_america(self):
        from repro.datasets import america_scenario

        problem = america_scenario().snapshot_problem()
        matrix, rhs = problem.augmented_system()
        origins, destinations, origin_codes, destination_codes = problem.pair_positions()
        blocks = [problem.routing.matrix]
        for labels, codes in ((origins, origin_codes), (destinations, destination_codes)):
            block = np.zeros((len(labels), problem.num_pairs))
            block[codes, np.arange(problem.num_pairs)] = 1.0
            blocks.append(block)
        reference = scipy.sparse.csr_matrix(np.vstack(blocks))
        assert scipy.sparse.isspmatrix_csr(matrix)
        np.testing.assert_array_equal(matrix.indptr, reference.indptr)
        np.testing.assert_array_equal(matrix.indices, reference.indices)
        np.testing.assert_array_equal(matrix.data, reference.data)
        np.testing.assert_array_equal(
            rhs,
            np.concatenate([problem.snapshot, problem.origin_totals, problem.destination_totals]),
        )

    def test_peak_memory_stays_below_one_dense_block(self):
        from repro.datasets import large_scenario

        problem = large_scenario(120, seed=2004, num_samples=4, busy_length=2).snapshot_problem()
        origins, _, _, _ = problem.pair_positions()
        dense_block_bytes = len(origins) * problem.num_pairs * 8
        tracemalloc.start()
        try:
            matrix, _ = problem.augmented_system()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.shape == (problem.routing.num_links + 2 * len(origins), problem.num_pairs)
        assert peak < dense_block_bytes


class TestEdgeTotals:
    """Edge totals are vectors in the label order of the routing's pair index."""

    @pytest.mark.parametrize("kind", ["origin", "destination"])
    def test_mapping_missing_a_label_is_rejected_at_construction(
        self, line_network, kind
    ):
        routing = build_routing_matrix(line_network)
        traffic = TrafficMatrix.from_network(
            line_network, {NodePair("A", "D"): 10.0, NodePair("D", "A"): 4.0}
        )
        totals = dict(getattr(traffic, f"{kind}_totals")())
        del totals["A"]
        with pytest.raises(EstimationError, match=rf"{kind}_totals missing for \['A'\]"):
            EstimationProblem(
                routing=routing,
                link_loads=routing.link_loads(traffic.vector),
                **{f"{kind}_totals": totals},
            )

    def test_vector_and_series_shapes_are_checked(self, triangle_routing):
        loads = np.ones(triangle_routing.num_links)
        with pytest.raises(EstimationError, match="origin_totals has shape"):
            EstimationProblem(routing=triangle_routing, link_loads=loads, origin_totals=[1.0])
        with pytest.raises(EstimationError, match="require a link_load_series"):
            EstimationProblem(
                routing=triangle_routing,
                link_loads=loads,
                destination_totals_series=np.ones((1, 3)),
            )
        with pytest.raises(EstimationError, match="destination_totals_series has shape"):
            EstimationProblem(
                routing=triangle_routing,
                link_load_series=np.ones((2, triangle_routing.num_links)),
                destination_totals_series=np.ones((3, 3)),
            )
        with pytest.raises(EstimationError, match="origin_totals_series must be an array"):
            EstimationProblem(
                routing=triangle_routing,
                link_load_series=np.ones((3, triangle_routing.num_links)),
                origin_totals_series={"A": [1.0, 2.0, 3.0]},
            )

    def test_totals_are_read_only(self, small_scenario_session):
        problem = small_scenario_session.series_problem(window_length=3)
        for totals in (problem.origin_totals, problem.origin_totals_series):
            with pytest.raises(ValueError):
                totals[0] = 1.0

    def test_mapping_and_vector_inputs_are_identical(self, small_scenario_session, small_truth):
        series_problem = small_scenario_session.series_problem(window_length=4)
        origins, destinations, _, _ = series_problem.pair_positions()
        # Key order does not matter: the boundary reads a mapping by label.
        origin_map = dict(reversed(list(small_truth.origin_totals().items())))
        destination_map = small_truth.destination_totals()
        common = dict(
            routing=series_problem.routing,
            link_loads=series_problem.routing.link_loads(small_truth.vector),
            link_load_series=series_problem.link_load_series,
            origin_totals_series=series_problem.origin_totals_series,
            destination_totals_series=series_problem.destination_totals_series,
        )
        from_mapping = EstimationProblem(
            origin_totals=origin_map, destination_totals=destination_map, **common
        )
        from_vector = EstimationProblem(
            origin_totals=np.array([origin_map[name] for name in origins]),
            destination_totals=[destination_map[name] for name in destinations],
            **common,
        )
        for name in (
            "link_loads",
            "link_load_series",
            "origin_totals",
            "destination_totals",
            "origin_totals_series",
            "destination_totals_series",
        ):
            assert np.array_equal(
                getattr(from_mapping, name), getattr(from_vector, name)
            ), name
        assert from_mapping.total_traffic() == from_vector.total_traffic()
        for method in ("gravity", "kruithof", "fanout", "worst-case-bounds"):
            mapped = get_estimator(method).estimate(from_mapping).vector
            vectored = get_estimator(method).estimate(from_vector).vector
            assert np.array_equal(mapped, vectored), method


class _ConstantEstimator(Estimator):
    name = "constant"

    def __init__(self, value: float, wrong_shape: bool = False) -> None:
        self.value = value
        self.wrong_shape = wrong_shape

    def estimate(self, problem):
        size = problem.num_pairs + (1 if self.wrong_shape else 0)
        return self._result(problem, np.full(size, self.value), note=1.0)


class TestEstimatorBase:
    def test_result_packaging(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing, link_loads=np.ones(triangle_routing.num_links)
        )
        result = _ConstantEstimator(2.0)(problem)
        assert result.method == "constant"
        assert result.diagnostics == {"note": 1.0}
        assert np.allclose(result.vector, 2.0)
        assert result.residual_norm(problem) > 0

    def test_wrong_shape_rejected(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing, link_loads=np.ones(triangle_routing.num_links)
        )
        with pytest.raises(EstimationError):
            _ConstantEstimator(1.0, wrong_shape=True).estimate(problem)

    def test_negative_estimates_are_clipped(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing, link_loads=np.ones(triangle_routing.num_links)
        )
        result = _ConstantEstimator(-1.0).estimate(problem)
        assert np.all(result.vector == 0.0)
