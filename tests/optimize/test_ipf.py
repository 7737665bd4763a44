"""Tests for Kruithof scaling and the KL divergence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.estimation import KruithofEstimator
from repro.estimation.priors import make_prior
from repro.optimize import kl_divergence, kruithof_scaling


def fit_matrix(prior, rows, cols):
    """:func:`kruithof_scaling` on one matrix: ``(fitted table, result)``."""
    result = kruithof_scaling(prior[None], rows[None], cols[None])
    return result.row_factors[0][:, None] * prior * result.column_factors[0], result


def table_ipf(table, row_targets, column_targets, tolerance=1e-9, max_iterations=500):
    """Reference: IPF that rescales the whole table in each half-sweep.

    Returns the fitted table and the sweeps it took to bring every row and
    column sum within ``tolerance * max(1, total)`` of its target.
    """
    values = table.copy()
    scale = tolerance * max(1.0, float(row_targets.sum()))
    for sweep in range(1, max_iterations + 1):
        for axis, targets in ((1, row_targets), (0, column_targets)):
            sums = values.sum(axis=axis)
            factors = np.divide(targets, sums, out=np.zeros_like(sums), where=sums > 0)
            values *= factors[:, None] if axis == 1 else factors[None, :]
        violation = max(
            np.abs(values.sum(axis=1) - row_targets).max(),
            np.abs(values.sum(axis=0) - column_targets).max(),
        )
        if violation < scale:
            return values, sweep
    raise AssertionError("the reference IPF did not converge")


@pytest.fixture(scope="module")
def europe_snapshot():
    from repro.datasets import europe_scenario

    return europe_scenario().snapshot_problem()


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
        values, result = fit_matrix(prior, rows, cols)
        assert result.converged
        assert np.allclose(values.sum(axis=1), rows, rtol=1e-6)
        assert np.allclose(values.sum(axis=0), cols, rtol=1e-6)

    def test_zero_prior_entries_stay_zero(self):
        prior = np.array([[0.0, 1.0], [1.0, 1.0]])
        values, _ = fit_matrix(prior, np.array([5.0, 10.0]), np.array([6.0, 9.0]))
        assert values[0, 0] == 0.0

    def test_mismatched_totals_are_rescaled(self):
        prior = np.ones((2, 2))
        values, _ = fit_matrix(prior, np.array([10.0, 10.0]), np.array([5.0, 5.0]))
        # Column targets are rescaled to the row total (20), so the fit succeeds.
        assert np.allclose(values.sum(axis=1), [10.0, 10.0], rtol=1e-6)

    def test_preserves_prior_structure(self):
        """Kruithof keeps the cross-product ratios of the prior (KL projection)."""
        prior = np.array([[4.0, 1.0], [1.0, 4.0]])
        fitted, _ = fit_matrix(prior, np.array([10.0, 10.0]), np.array([10.0, 10.0]))
        prior_ratio = (prior[0, 0] * prior[1, 1]) / (prior[0, 1] * prior[1, 0])
        fitted_ratio = (fitted[0, 0] * fitted[1, 1]) / (fitted[0, 1] * fitted[1, 0])
        assert fitted_ratio == pytest.approx(prior_ratio, rel=1e-6)

    def test_validation(self):
        with pytest.raises(SolverError):
            kruithof_scaling(np.ones((3, 3)), np.ones((1, 3)), np.ones((1, 3)))
        with pytest.raises(SolverError):
            kruithof_scaling(np.ones((1, 2, 2)), np.ones((1, 3)), np.ones((1, 2)))
        with pytest.raises(SolverError):
            kruithof_scaling(-np.ones((1, 2, 2)), np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(SolverError):
            kruithof_scaling(np.ones((1, 2, 2)), np.zeros((1, 2)), np.zeros((1, 2)))


class TestScalingVectors:
    @pytest.mark.parametrize("prior", ["uniform", "gravity"])
    def test_match_a_table_ipf(self, europe_snapshot, prior):
        problem = europe_snapshot
        vector = make_prior(problem, prior)
        origins, destinations, rows, columns = problem.pair_positions()
        table = np.zeros((len(origins), len(destinations)))
        table[rows, columns] = vector
        reference, sweeps = table_ipf(table, problem.origin_totals, problem.destination_totals)

        fitted, result = fit_matrix(table, problem.origin_totals, problem.destination_totals)
        assert result.converged and result.iterations == sweeps
        assert np.linalg.norm(fitted - reference) <= 1e-14 * np.linalg.norm(reference)
        assert np.all(fitted[table == 0] == 0.0)  # prior zeros stay zero

        estimate = KruithofEstimator(prior=prior).estimate(problem)
        assert estimate.diagnostics["iterations"] == sweeps
        expected = reference[rows, columns]
        assert np.linalg.norm(estimate.vector - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_converged_slices_are_frozen(self):
        rng = np.random.default_rng(4)
        priors = rng.uniform(0.5, 2.0, size=(3, 4, 5))
        truth = priors * rng.uniform(0.5, 2.0, size=priors.shape)
        truth[1] = priors[1] * 3.0  # already in the prior's class: one sweep
        rows, cols = truth.sum(axis=2), truth.sum(axis=1)
        batch = kruithof_scaling(priors, rows, cols)
        sweeps = []
        for k in range(3):
            alone = kruithof_scaling(priors[k : k + 1], rows[k : k + 1], cols[k : k + 1])
            np.testing.assert_array_equal(batch.row_factors[k], alone.row_factors[0])
            np.testing.assert_array_equal(batch.column_factors[k], alone.column_factors[0])
            sweeps.append(alone.iterations)
        assert sweeps[1] == 1 < batch.iterations == max(sweeps)
        assert batch.converged
