"""Tests for the linear-programming wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.optimize import bound_variables_batch, solve_linear_program


class TestSolveLP:
    def test_minimisation_on_simplex(self):
        cost = np.array([1.0, 2.0, 3.0])
        A = np.ones((1, 3))
        b = np.array([1.0])
        result = solve_linear_program(cost, A, b)
        assert result.objective == pytest.approx(1.0)
        assert result.x[0] == pytest.approx(1.0)
        # The equality duals prove the minimum: b @ y == min, A.T @ y <= cost.
        assert b @ result.duals == pytest.approx(1.0)
        assert np.all(A.T @ result.duals <= cost + 1e-12)

    def test_maximisation_on_simplex(self):
        cost = np.array([1.0, 2.0, 3.0])
        A = np.ones((1, 3))
        b = np.array([1.0])
        result = solve_linear_program(cost, A, b, maximise=True)
        assert result.objective == pytest.approx(3.0)
        assert result.x[2] == pytest.approx(1.0)
        # Duals in the original sense: b @ y == max, A.T @ y >= cost.
        assert b @ result.duals == pytest.approx(3.0)
        assert np.all(A.T @ result.duals >= cost - 1e-12)

    def test_upper_bounds_respected(self):
        cost = np.array([1.0, 1.0])
        result = solve_linear_program(
            cost,
            np.array([[1.0, 1.0]]),
            np.array([3.0]),
            upper_bounds=np.array([2.0, 2.0]),
            maximise=True,
        )
        assert result.objective == pytest.approx(3.0)
        assert np.all(result.x <= 2.0 + 1e-9)

    def test_infeasible_problem_raises(self):
        cost = np.array([1.0])
        A = np.array([[1.0]])
        b = np.array([-5.0])  # x >= 0 cannot satisfy x = -5
        with pytest.raises(SolverError):
            solve_linear_program(cost, A, b)

    def test_unbounded_problem_raises(self):
        with pytest.raises(SolverError):
            solve_linear_program(np.array([1.0, -1.0]), maximise=True)

    def test_validation(self):
        with pytest.raises(SolverError):
            solve_linear_program(np.ones((2, 2)))
        with pytest.raises(SolverError):
            solve_linear_program(np.ones(2), equality_matrix=np.ones((1, 2)))
        with pytest.raises(SolverError):
            solve_linear_program(np.ones(2), np.ones((1, 3)), np.ones(1))
        with pytest.raises(SolverError):
            solve_linear_program(np.ones(2), upper_bounds=np.ones(3))


class TestBoundVariable:
    """One coordinate's bounds: a batch of one index."""

    def test_bounds_on_identified_variable(self):
        # x0 + x1 = 10 and x0 = 4 exactly identifies both variables.
        A = np.array([[1.0, 1.0], [1.0, 0.0]])
        b = np.array([10.0, 4.0])
        for index, value in ((0, 4.0), (1, 6.0)):
            result = bound_variables_batch([index], A, b)
            assert result.pairs() == [pytest.approx((value, value))]
            assert result.certified

    def test_bounds_on_free_variable(self):
        A = np.array([[1.0, 1.0]])
        b = np.array([10.0])
        result = bound_variables_batch([0], A, b)
        assert result.pairs() == [pytest.approx((0.0, 10.0))]
        assert result.certified

    def test_index_out_of_range_rejected(self):
        with pytest.raises(SolverError):
            bound_variables_batch([5], np.ones((1, 2)), np.ones(1))
