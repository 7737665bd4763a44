"""Tests for Kruithof scaling, generalised iterative scaling and KL divergence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.optimize import kl_divergence, kruithof_scaling


class TestKLDivergence:
    def test_zero_when_equal(self):
        values = np.array([1.0, 2.0, 3.0])
        assert kl_divergence(values, values) == pytest.approx(0.0)

    def test_positive_when_different(self):
        assert kl_divergence(np.array([1.0, 3.0]), np.array([2.0, 2.0])) > 0.0

    def test_zero_value_against_positive_prior_is_finite(self):
        assert np.isfinite(kl_divergence(np.array([0.0, 1.0]), np.array([1.0, 1.0])))

    def test_positive_value_against_zero_prior_is_infinite(self):
        assert kl_divergence(np.array([1.0]), np.array([0.0])) == float("inf")

    def test_validation(self):
        with pytest.raises(SolverError):
            kl_divergence(np.ones(2), np.ones(3))
        with pytest.raises(SolverError):
            kl_divergence(np.array([-1.0]), np.array([1.0]))


class TestKruithofScaling:
    def test_row_and_column_sums_match_targets(self):
        prior = np.ones((3, 3))
        rows = np.array([10.0, 20.0, 30.0])
        cols = np.array([15.0, 15.0, 30.0])
        result = kruithof_scaling(prior, rows, cols)
        assert result.converged
        assert np.allclose(result.values.sum(axis=1), rows, rtol=1e-6)
        assert np.allclose(result.values.sum(axis=0), cols, rtol=1e-6)

    def test_zero_prior_entries_stay_zero(self):
        prior = np.array([[0.0, 1.0], [1.0, 1.0]])
        result = kruithof_scaling(prior, np.array([5.0, 10.0]), np.array([6.0, 9.0]))
        assert result.values[0, 0] == 0.0

    def test_mismatched_totals_are_rescaled(self):
        prior = np.ones((2, 2))
        result = kruithof_scaling(prior, np.array([10.0, 10.0]), np.array([5.0, 5.0]))
        # Column targets are rescaled to the row total (20), so the fit succeeds.
        assert np.allclose(result.values.sum(axis=1), [10.0, 10.0], rtol=1e-6)

    def test_preserves_prior_structure(self):
        """Kruithof keeps the cross-product ratios of the prior (KL projection)."""
        prior = np.array([[4.0, 1.0], [1.0, 4.0]])
        result = kruithof_scaling(prior, np.array([10.0, 10.0]), np.array([10.0, 10.0]))
        fitted = result.values
        prior_ratio = (prior[0, 0] * prior[1, 1]) / (prior[0, 1] * prior[1, 0])
        fitted_ratio = (fitted[0, 0] * fitted[1, 1]) / (fitted[0, 1] * fitted[1, 0])
        assert fitted_ratio == pytest.approx(prior_ratio, rel=1e-6)

    def test_validation(self):
        with pytest.raises(SolverError):
            kruithof_scaling(np.ones(3), np.ones(3), np.ones(3))
        with pytest.raises(SolverError):
            kruithof_scaling(np.ones((2, 2)), np.ones(3), np.ones(2))
        with pytest.raises(SolverError):
            kruithof_scaling(-np.ones((2, 2)), np.ones(2), np.ones(2))
        with pytest.raises(SolverError):
            kruithof_scaling(np.ones((2, 2)), np.zeros(2), np.zeros(2))
