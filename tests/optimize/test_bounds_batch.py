"""Tests for the batched, certified worst-case-bound engine.

Four layers of guarantees:

* **parity** — :func:`bound_variables_batch` must reproduce the per-pair
  LP bounds exactly (within solver tolerance) on hand-built systems, random
  feasible systems, and the europe, abilene and america scenarios (slow);
* **presolve soundness** — the combinatorial intervals of
  :func:`presolve_variable_bounds` always *contain* the LP bounds, and
  leverage pinning marks the coordinates a dense SVD finds the null space
  vanishing on (property tests on random routing systems);
* **certificates** — every bound is proved by a witness and a dual, and a
  perturbed witness or dual fails the check, with either LP engine;
* **failure modes** — infeasible and unbounded systems raise
  :class:`~repro.errors.SolverError` exactly like the per-pair path, even
  when the presolve resolves every requested coordinate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.optimize import linear_program
from repro.optimize.linear_program import (
    _TIGHT_TOLERANCE,
    bound_variables_batch,
    presolve_variable_bounds,
    solve_linear_program,
)


def cold_bounds(matrix, rhs, indices):
    """The serial per-pair loop the batch engine replaces: two cold LPs each."""
    num_vars = matrix.shape[1]
    lower = np.empty(len(indices))
    upper = np.empty(len(indices))
    for out, index in enumerate(indices):
        cost = np.zeros(num_vars)
        cost[index] = 1.0
        lower[out] = solve_linear_program(cost, matrix, rhs, maximise=False).objective
        upper[out] = solve_linear_program(cost, matrix, rhs, maximise=True).objective
    return lower, upper


def reference_bounds(matrix, rhs):
    """Cold per-pair bounds of every coordinate."""
    return cold_bounds(matrix, rhs, range(matrix.shape[1]))


def svd_pinned(matrix):
    """Reference pinning: coordinates on which a dense SVD null space vanishes."""
    dense = np.asarray(matrix.toarray() if hasattr(matrix, "toarray") else matrix, dtype=float)
    _, singular, vt = np.linalg.svd(dense, full_matrices=True)
    tol = singular.max(initial=0.0) * max(dense.shape) * np.finfo(float).eps
    rank = int((singular > tol).sum())
    return np.abs(vt[rank:]).max(axis=0, initial=0.0) < 1e-10


def random_routing_system(rng, num_rows=12, num_vars=18):
    """A random 0/1 routing-like system with a known feasible point."""
    matrix = (rng.random((num_rows, num_vars)) < 0.3).astype(float)
    matrix[rng.integers(num_rows, size=num_vars), np.arange(num_vars)] = 1.0
    truth = rng.random(num_vars) * 10.0
    return matrix, matrix @ truth


class TestBatchMatchesPerPairLoop:
    def test_hand_built_system(self):
        matrix = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 1.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
            ]
        )
        rhs = matrix @ np.array([2.0, 3.0, 1.0, 4.0])
        lower_ref, upper_ref = reference_bounds(matrix, rhs)
        result = bound_variables_batch(range(4), matrix, rhs)
        np.testing.assert_allclose(result.lower, lower_ref, atol=1e-8)
        np.testing.assert_allclose(result.upper, upper_ref, atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_systems(self, seed):
        rng = np.random.default_rng(seed)
        matrix, rhs = random_routing_system(rng)
        lower_ref, upper_ref = reference_bounds(matrix, rhs)
        scale = max(1.0, float(rhs.max()))
        result = bound_variables_batch(range(matrix.shape[1]), matrix, rhs)
        np.testing.assert_allclose(result.lower, lower_ref, atol=1e-7 * scale)
        np.testing.assert_allclose(result.upper, upper_ref, atol=1e-7 * scale)

    def test_subset_and_order_preserved(self):
        rng = np.random.default_rng(11)
        matrix, rhs = random_routing_system(rng)
        subset = [5, 2, 9]
        full = bound_variables_batch(range(matrix.shape[1]), matrix, rhs)
        partial = bound_variables_batch(subset, matrix, rhs)
        assert partial.indices == tuple(subset)
        np.testing.assert_allclose(partial.lower, full.lower[subset], atol=1e-8)
        np.testing.assert_allclose(partial.upper, full.upper[subset], atol=1e-8)

    def test_sparse_input_accepted(self):
        import scipy.sparse

        rng = np.random.default_rng(17)
        matrix, rhs = random_routing_system(rng)
        dense = bound_variables_batch(range(matrix.shape[1]), matrix, rhs)
        sparse = bound_variables_batch(
            range(matrix.shape[1]), scipy.sparse.csr_matrix(matrix), rhs
        )
        np.testing.assert_allclose(sparse.lower, dense.lower, atol=1e-9)
        np.testing.assert_allclose(sparse.upper, dense.upper, atol=1e-9)


class TestPresolveSoundness:
    @pytest.mark.parametrize("seed", range(8))
    def test_combinatorial_interval_contains_lp_bounds(self, seed):
        """Property: presolve bounds always contain the exact LP bounds."""
        rng = np.random.default_rng(100 + seed)
        matrix, rhs = random_routing_system(
            rng, num_rows=int(rng.integers(6, 14)), num_vars=int(rng.integers(8, 20))
        )
        lower_lp, upper_lp = reference_bounds(matrix, rhs)
        lower_pre, upper_pre, pinned = presolve_variable_bounds(matrix, rhs)
        scale = max(1.0, float(rhs.max()))
        assert np.all(lower_pre <= lower_lp + 1e-6 * scale)
        assert np.all(upper_lp <= upper_pre + 1e-6 * scale)
        # Pinned coordinates are exact, not just contained.
        np.testing.assert_allclose(
            lower_pre[pinned], lower_lp[pinned], atol=1e-6 * scale
        )
        np.testing.assert_allclose(
            upper_pre[pinned], upper_lp[pinned], atol=1e-6 * scale
        )
        # Leverage pinning finds exactly the SVD's pinned set.
        np.testing.assert_array_equal(pinned, svd_pinned(matrix))

    def test_fractional_entries_supported(self):
        """ECMP-style fractional coefficients keep the bounds sound."""
        rng = np.random.default_rng(42)
        matrix = (rng.random((10, 14)) < 0.3).astype(float)
        matrix[rng.integers(10, size=14), np.arange(14)] = 1.0
        matrix *= rng.choice([0.5, 1.0], size=matrix.shape)
        rhs = matrix @ (rng.random(14) * 5.0)
        lower_lp, upper_lp = reference_bounds(matrix, rhs)
        lower_pre, upper_pre, _ = presolve_variable_bounds(matrix, rhs)
        scale = max(1.0, float(rhs.max()))
        assert np.all(lower_pre <= lower_lp + 1e-6 * scale)
        assert np.all(upper_lp <= upper_pre + 1e-6 * scale)

    def test_negative_coefficients_fall_back_to_trivial_interval(self):
        matrix = np.array([[1.0, -1.0]])
        rhs = np.array([1.0])
        lower, upper, pinned = presolve_variable_bounds(matrix, rhs)
        assert np.all(lower == 0.0)
        assert np.all(np.isinf(upper) | pinned)


class TestFailureModes:
    def test_infeasible_system_raises(self):
        matrix = np.array([[1.0, 0.0]])
        rhs = np.array([-1.0])
        with pytest.raises(SolverError):
            bound_variables_batch([0, 1], matrix, rhs)

    def test_infeasible_detected_even_when_fully_presolved(self):
        # x1 = 5 and x1 = 7 cannot both hold; both coordinates are pinned
        # by the equality system, so no bounding LP would ever run without
        # the explicit feasibility check.
        matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rhs = np.array([5.0, 7.0, 1.0])
        with pytest.raises(SolverError):
            bound_variables_batch([0, 1], matrix, rhs)

    def test_unbounded_coordinate_raises(self):
        matrix = np.array([[1.0, 0.0]])
        rhs = np.array([5.0])
        with pytest.raises(SolverError):
            bound_variables_batch([1], matrix, rhs)

    def test_index_out_of_range(self):
        matrix = np.array([[1.0, 1.0]])
        rhs = np.array([1.0])
        with pytest.raises(SolverError):
            bound_variables_batch([2], matrix, rhs)
        with pytest.raises(SolverError):
            bound_variables_batch([-1], matrix, rhs)

    def test_empty_request(self):
        matrix = np.array([[1.0, 1.0]])
        rhs = np.array([1.0])
        result = bound_variables_batch([], matrix, rhs)
        assert result.indices == ()
        assert result.lower.shape == (0,)


@pytest.fixture(scope="module")
def europe_system():
    from repro.datasets import europe_scenario

    matrix, rhs = europe_scenario().snapshot_problem().augmented_system()
    return matrix, np.asarray(rhs)


def solver_spy(monkeypatch, tamper=None):
    """Record every ``(index, maximise)`` LP; ``tamper`` may rewrite its output."""
    calls = []
    original = linear_program._IncrementalBoundSolver.solve

    def spy(self, index, maximise):
        value, witness, dual = original(self, index, maximise)
        calls.append((index, maximise))
        if tamper is not None:
            value, witness, dual = tamper(len(calls), value, witness.copy(), dual.copy())
        return value, witness, dual

    monkeypatch.setattr(linear_program._IncrementalBoundSolver, "solve", spy)
    return calls


class TestCertificates:
    def test_every_bound_certified(self, europe_system):
        matrix, rhs = europe_system
        result = bound_variables_batch(range(matrix.shape[1]), matrix, rhs)
        assert result.engine == "highs-incremental"
        assert 0.0 <= result.max_gap <= _TIGHT_TOLERANCE
        assert result.certified

    @pytest.mark.parametrize("part", ["witness", "dual"])
    def test_perturbed_certificate_fails_the_check(self, europe_system, monkeypatch, part):
        matrix, rhs = europe_system

        def tamper(call, value, witness, dual):
            if call == 3:
                if part == "witness":
                    witness[np.argmax(witness)] += 1e-3
                else:
                    dual[np.argmax(rhs)] += 1e-3
            return value, witness, dual

        solver_spy(monkeypatch, tamper)
        result = bound_variables_batch(range(matrix.shape[1]), matrix, rhs)
        assert result.max_gap > _TIGHT_TOLERANCE
        assert not result.certified

    def test_estimator_reports_an_uncertified_bound(self, monkeypatch):
        from repro.datasets import europe_scenario
        from repro.estimation import WorstCaseBoundsEstimator

        problem = europe_scenario().snapshot_problem()

        def tamper(call, value, witness, dual):
            if call == 1:
                witness[0] -= 1.0  # infeasible: A x != b and x < 0 somewhere
            return value, witness, dual

        solver_spy(monkeypatch, tamper)
        diagnostics = WorstCaseBoundsEstimator().estimate(problem).diagnostics
        assert diagnostics["bound_gap"] > _TIGHT_TOLERANCE
        assert diagnostics["converged"] is False

    def test_linprog_fallback_matches_and_is_certified(self, europe_system, monkeypatch):
        matrix, rhs = europe_system
        indices = range(matrix.shape[1])
        highs = bound_variables_batch(indices, matrix, rhs)
        monkeypatch.setattr(linear_program, "_load_highs_core", lambda: None)
        fallback = bound_variables_batch(indices, matrix, rhs)
        assert fallback.engine == "linprog"
        scale = max(1.0, float(rhs.max()))
        np.testing.assert_allclose(fallback.lower, highs.lower, rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(fallback.upper, highs.upper, rtol=0, atol=1e-9 * scale)
        assert fallback.certified

    def test_pinning_reaches_past_the_dense_cap(self):
        """N=100 has 500 x 9,900 constraints, past the old 4M-entry SVD cap."""
        from repro.datasets import large_scenario

        matrix, rhs = large_scenario(100, seed=2004).snapshot_problem().augmented_system()
        lower, upper, pinned = presolve_variable_bounds(matrix, rhs)
        # Reference: leverage scores from a thin dense SVD.
        _, singular, vt = np.linalg.svd(matrix.toarray(), full_matrices=False)
        rank = int((singular > singular.max() * max(matrix.shape) * np.finfo(float).eps).sum())
        leverage = np.einsum("ij,ij->j", vt[:rank], vt[:rank])
        np.testing.assert_array_equal(pinned, leverage >= 1.0 - 1e-10)
        np.testing.assert_array_equal(lower[pinned], upper[pinned])


@pytest.mark.slow
class TestScenarioParity:
    """The acceptance parity: batch == cold per-pair LPs on real scenarios."""

    #: Pairs the equality system pins on each scenario (seed 2004).
    PINNED = {"europe_scenario": 30, "abilene_scenario": 0, "america_scenario": 86}

    @pytest.mark.parametrize("builder", sorted(PINNED))
    def test_batch_reproduces_per_pair_bounds(self, builder, monkeypatch):
        import repro.datasets as datasets

        num_pinned = self.PINNED[builder]
        problem = getattr(datasets, builder)(seed=2004).snapshot_problem()
        matrix, rhs = problem.augmented_system()
        num_pairs = problem.num_pairs
        calls = solver_spy(monkeypatch)
        result = bound_variables_batch(range(num_pairs), matrix, rhs)
        _, _, pinned = presolve_variable_bounds(matrix, rhs)
        np.testing.assert_array_equal(pinned, svd_pinned(matrix))
        assert result.num_pinned == pinned.sum() == num_pinned
        assert result.certified

        # Every bound on the small scenarios; on America a fixed sample of
        # every tenth pair, which holds pinned, witness-resolved and
        # LP-solved upper bounds alike.
        sample = np.arange(num_pairs) if num_pairs < 200 else np.arange(0, num_pairs, 10)
        lp_solved = {index for index, maximise in calls if maximise}
        kinds = {
            "pinned" if pinned[i] else "lp" if i in lp_solved else "witness" for i in sample
        }
        assert kinds == ({"lp", "witness"} | ({"pinned"} if num_pinned else set()))
        cold_lower, cold_upper = cold_bounds(matrix, rhs, sample)
        scale = max(1.0, float(np.asarray(rhs).max()))
        np.testing.assert_allclose(result.lower[sample], cold_lower, rtol=0, atol=1e-6 * scale)
        np.testing.assert_allclose(result.upper[sample], cold_upper, rtol=0, atol=1e-6 * scale)

        # The reductions must actually bite: witnesses skip maximisations
        # and minimisations alike, so well under two LPs per pair run.
        assert result.num_upper_skipped > 0 and result.num_lower_skipped > 0
        assert result.num_lps_solved == len(calls)
        assert result.num_lps_solved + result.num_upper_skipped + result.num_lower_skipped == (
            2 * (num_pairs - num_pinned)
        )
        assert result.num_lps_solved < num_pairs
