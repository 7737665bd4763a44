"""Tests for the exact NNLS solvers and their KKT certificate."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from repro.errors import SolverError
from repro.optimize import constrained_nnls, kkt_residual, nnls_active_set


def random_problem(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(rows, cols))
    x_true = np.maximum(rng.normal(size=cols), 0.0)
    b = A @ x_true
    return A, b, x_true


class TestActiveSet:
    def test_recovers_nonnegative_solution(self):
        A, b, x_true = random_problem(30, 10, seed=1)
        result = nnls_active_set(A, b)
        assert np.all(result.x >= 0)
        assert result.residual_norm < 1e-8

    def test_enforces_nonnegativity_when_unconstrained_solution_is_negative(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([-1.0, 2.0, 1.0])
        result = nnls_active_set(A, b)
        assert np.all(result.x >= 0)
        assert result.x[0] == 0.0

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            nnls_active_set(np.ones((3, 2)), np.ones(4))
        with pytest.raises(SolverError):
            nnls_active_set(np.ones(3), np.ones(3))

    @pytest.mark.parametrize("seed", range(3))
    def test_solution_meets_its_kkt_certificate(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(25, 12))
        b = rng.normal(size=25)
        x = nnls_active_set(A, b).x
        gradient = A.T @ (A @ x - b)
        assert kkt_residual(x, gradient, float(np.abs(A.T @ b).max())) < 1e-12


class TestKKTResidual:
    def test_zero_at_a_minimiser_and_positive_away_from_it(self):
        # min (x0 - 1)^2 + (x1 + 1)^2 over x >= 0 is x = (1, 0).
        def gradient(x):
            return np.array([x[0] - 1.0, x[1] + 1.0])

        assert kkt_residual(np.array([1.0, 0.0]), gradient(np.array([1.0, 0.0])), 1.0) == 0.0
        assert kkt_residual(np.array([0.5, 0.0]), gradient(np.array([0.5, 0.0])), 1.0) == 0.5
        assert kkt_residual(np.array([1.0, 0.2]), gradient(np.array([1.0, 0.2])), 2.0) == 0.1

    def test_empty_and_zero_scale(self):
        assert kkt_residual(np.zeros(0), np.zeros(0), 0.0) == 0.0
        assert kkt_residual(np.array([2.0]), np.array([3.0]), 0.0) == 2.0


def grouped_problem(rows, cols, groups, seed):
    """``min ||A x - b||`` with ``x`` split into ``groups`` blocks that each sum to one."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(rows, cols))
    b = A @ rng.dirichlet(np.ones(cols)) * groups + rng.normal(scale=0.05, size=rows)
    E = np.zeros((groups, cols))
    E[np.arange(cols) % groups, np.arange(cols)] = 1.0
    return A, b, E, np.ones(groups)


def stacked_oracle(A, b, E, f):
    """Lawson-Hanson on the explicitly stacked ``[A; wE] x ~ [b; wf]``."""
    weight = 1000.0 * max(1.0, np.linalg.norm(A) / np.linalg.norm(E))
    x, _ = scipy.optimize.nnls(np.vstack([A, weight * E]), np.concatenate([b, weight * f]))
    return x, weight


class TestConstrainedNNLS:
    def test_simplex_constraint_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(20, 5))
        x_true = np.array([0.5, 0.3, 0.2, 0.0, 0.0])
        b = A @ x_true
        E = np.ones((1, 5))
        f = np.array([1.0])
        result = constrained_nnls(A, b, E, f)
        assert np.all(result.x >= -1e-9)
        assert result.x.sum() == pytest.approx(1.0, abs=1e-3)
        assert np.allclose(result.x, x_true, atol=1e-2)

    def test_binding_equality_is_met(self):
        # The unconstrained minimiser (1, 2, 3) sums to 6; the constraint
        # asks for 3, which shifts every coordinate down by one.
        result = constrained_nnls(np.eye(3), np.array([1.0, 2.0, 3.0]), np.ones((1, 3)), np.array([3.0]))
        assert result.equality_violation < 1e-6
        np.testing.assert_allclose(result.x, [0.0, 1.0, 2.0], atol=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_tall_system_matches_the_stacked_solve(self, seed):
        # 2000 x 40 has full column rank, so the minimiser is unique and the
        # triangle must find the one the stacked system gives.
        A, b, E, f = grouped_problem(2000, 40, 4, seed)
        oracle, _ = stacked_oracle(A, b, E, f)
        result = constrained_nnls(A, b, E, f)
        np.testing.assert_allclose(result.x, oracle, rtol=0.0, atol=1e-9)
        assert result.residual_norm == pytest.approx(np.linalg.norm(A @ oracle - b), rel=1e-12)
        assert result.equality_violation < 1e-6

    def test_wide_system_reaches_the_stacked_optimum(self):
        # Fewer rows than columns: the factor is a trapezoid and the
        # minimisers may form a set, so compare the objective, not the
        # point.  Loads of both signs keep the optimum above zero.
        A, _, E, f = grouped_problem(12, 40, 2, seed=7)
        b = np.random.default_rng(7).normal(size=12)
        oracle, weight = stacked_oracle(A, b, E, f)
        M, c = np.vstack([A, weight * E]), np.concatenate([b, weight * f])
        x = constrained_nnls(A, b, E, f).x
        optimum = np.linalg.norm(M @ oracle - c)
        assert optimum > 0.1
        assert np.linalg.norm(M @ x - c) == pytest.approx(optimum, rel=1e-9)
        assert kkt_residual(x, M.T @ (M @ x - c), float(np.abs(M.T @ c).max())) < 1e-12

    def test_peak_allocation_is_one_augmented_copy(self):
        # [A; wE | b; wf] is written once into the buffer the QR factors in
        # place; stacking first and factoring a copy would take three.
        A, b, E, f = grouped_problem(6000, 60, 3, seed=1)
        augmented_bytes = (A.shape[0] + E.shape[0]) * (A.shape[1] + 1) * A.itemsize
        tracemalloc.start()
        try:
            constrained_nnls(A, b, E, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * augmented_bytes

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            constrained_nnls(np.ones((3, 2)), np.ones(3), np.ones((1, 3)), np.ones(1))
        with pytest.raises(SolverError):
            constrained_nnls(np.ones((3, 2)), np.ones(2), np.ones((1, 2)), np.ones(1))
