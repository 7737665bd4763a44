"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.estimation import EstimationProblem, KLProjectionEstimator
from repro.optimize import kl_divergence, kruithof_scaling, nnls_active_set
from repro.routing import RoutingMatrix, ShortestPathRouter, build_routing_matrix
from repro.topology import NodePair, random_backbone
from repro.traffic import ScalingLaw, TrafficMatrix, fit_scaling_law

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

PAIRS = tuple(NodePair(f"N{i}", f"N{j}") for i in range(4) for j in range(4) if i != j)

demand_vectors = hnp.arrays(
    dtype=float,
    shape=len(PAIRS),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


class TestTrafficMatrixProperties:
    @SETTINGS
    @given(values=demand_vectors)
    def test_total_is_sum_and_scaling_is_linear(self, values):
        matrix = TrafficMatrix(PAIRS, values)
        assert matrix.total == pytest.approx(values.sum(), rel=1e-12, abs=1e-9)
        doubled = matrix.scaled(2.0)
        assert doubled.total == pytest.approx(2.0 * matrix.total, rel=1e-12, abs=1e-9)

    @SETTINGS
    @given(values=demand_vectors)
    def test_fanouts_form_probability_distributions(self, values):
        matrix = TrafficMatrix(PAIRS, values)
        fanouts = matrix.fanouts()
        assert all(v >= 0 for v in fanouts.values())
        for origin in {pair.origin for pair in PAIRS}:
            share = sum(v for pair, v in fanouts.items() if pair.origin == origin)
            assert share == pytest.approx(1.0, abs=1e-9)

    @SETTINGS
    @given(values=demand_vectors)
    def test_distribution_normalisation(self, values):
        matrix = TrafficMatrix(PAIRS, values)
        if matrix.total > 0:
            _, cumulative = matrix.cumulative_distribution()
            assert cumulative[-1] == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(cumulative) >= 0)

    @SETTINGS
    @given(values=demand_vectors, fraction=st.floats(min_value=0.05, max_value=1.0))
    def test_threshold_rule_covers_requested_fraction(self, values, fraction):
        matrix = TrafficMatrix(PAIRS, values)
        if matrix.total == 0:
            return
        threshold = matrix.threshold_for_traffic_fraction(fraction)
        covered = values[values >= threshold].sum()
        assert covered >= fraction * matrix.total - 1e-9

    @SETTINGS
    @given(values=demand_vectors)
    def test_origin_totals_consistent_with_dense_view(self, values):
        matrix = TrafficMatrix(PAIRS, values)
        names, dense = matrix.to_dense()
        origin_totals = matrix.origin_totals()
        for i, name in enumerate(names):
            if name in origin_totals:
                assert dense[i].sum() == pytest.approx(origin_totals[name], rel=1e-12, abs=1e-9)


class TestRoutingProperties:
    @SETTINGS
    @given(
        num_nodes=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_routing_matrix_is_binary_and_paths_connect(self, num_nodes, seed):
        network = random_backbone(num_nodes, avg_degree=2.5, seed=seed)
        routing = build_routing_matrix(network)
        assert set(np.unique(routing.matrix)) <= {0.0, 1.0}
        # Every column must contain at least one link (demands traverse >= 1 link).
        assert np.all(routing.matrix.sum(axis=0) >= 1.0)

    @SETTINGS
    @given(
        num_nodes=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_shortest_path_cost_is_symmetric_for_symmetric_metrics(self, num_nodes, seed):
        network = random_backbone(num_nodes, avg_degree=2.5, seed=seed)
        router = ShortestPathRouter(network)
        pairs = network.node_pairs()
        for pair in pairs[: min(6, len(pairs))]:
            forward = router.shortest_path(pair).cost
            backward = router.shortest_path(pair.reversed()).cost
            assert forward == pytest.approx(backward, rel=1e-9)


class TestSolverProperties:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=3, max_value=12),
        cols=st.integers(min_value=2, max_value=8),
    )
    def test_nnls_solution_is_nonnegative_and_no_worse_than_zero(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(rows, cols))
        b = rng.normal(size=rows)
        result = nnls_active_set(A, b)
        assert np.all(result.x >= 0)
        assert result.residual_norm <= np.linalg.norm(b) + 1e-8

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=2, max_value=5),
        cols=st.integers(min_value=2, max_value=5),
    )
    def test_kruithof_preserves_zero_pattern_and_hits_targets(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        prior = rng.uniform(0.5, 2.0, size=(rows, cols))
        prior[rng.uniform(size=(rows, cols)) < 0.2] = 0.0
        if np.any(prior.sum(axis=1) == 0) or np.any(prior.sum(axis=0) == 0):
            return
        truth = prior * rng.uniform(0.5, 2.0, size=(rows, cols))
        row_targets = truth.sum(axis=1)
        column_targets = truth.sum(axis=0)
        result = kruithof_scaling(prior[None], row_targets[None], column_targets[None])
        values = result.row_factors[0][:, None] * prior * result.column_factors[0]
        assert np.all(values[prior == 0] == 0)
        if result.converged:
            assert np.allclose(values.sum(axis=1), row_targets, rtol=1e-4)

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_kl_divergence_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 10.0, size=8)
        prior = rng.uniform(0.1, 10.0, size=8)
        assert kl_divergence(values, prior) >= -1e-9

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_kl_projection_reduces_constraint_violation(self, seed):
        rng = np.random.default_rng(seed)
        routing = (rng.uniform(size=(3, 6)) < 0.5).astype(float)
        routing[0] = 1.0  # ensure no empty rows
        truth = rng.uniform(0.5, 5.0, size=6)
        target = routing @ truth
        prior = rng.uniform(0.5, 5.0, size=6)
        problem = EstimationProblem(
            routing=RoutingMatrix(routing, [f"L{i}" for i in range(3)], PAIRS[:6]),
            link_loads=target,
        )
        before = float(np.max(np.abs(routing @ prior - target)))
        result = KLProjectionEstimator(prior=prior).estimate(problem)
        assert result.diagnostics["converged"]
        assert float(np.max(np.abs(routing @ result.vector - target))) <= before + 1e-9


class TestScalingLawProperties:
    @SETTINGS
    @given(
        phi=st.floats(min_value=0.1, max_value=5.0),
        c=st.floats(min_value=0.5, max_value=2.5),
    )
    def test_fit_recovers_exact_law(self, phi, c):
        means = np.logspace(0, 4, 40)
        law = ScalingLaw(phi=phi, c=c)
        fitted = fit_scaling_law(means, np.asarray(law.variance(means)))
        assert fitted.c == pytest.approx(c, rel=1e-6)
        assert fitted.phi == pytest.approx(phi, rel=1e-4)
