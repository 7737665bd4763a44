"""The link-space dual Newton kernel behind the entropy-family and Bayesian fits.

The kernel must return the minimiser of the primal objective it claims to
solve and prove it with its duality gap: Bayesian against the exact
Lawson-Hanson solution of the stacked system, entropy against a tight
quasi-Newton reference.  It must also stop when the solver budget runs
out, and fail loudly (``SolverError``) on inputs it cannot solve.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize

from repro.datasets import abilene_scenario, large_scenario
from repro.errors import BudgetExceededError, SolverError
from repro.estimation import BayesianEstimator, EntropyEstimator, EstimationProblem
from repro.estimation.priors import make_prior
from repro.optimize import KLMap, L2Map, nnls_active_set, solve_dual
from repro.optimize import dual as dual_module
from repro.optimize.ipf import kl_divergence
from repro.resilience import SolverBudget
from repro.routing import RoutingMatrix
from repro.topology import NodePair


@pytest.fixture(scope="module")
def europe_problem():
    from repro.datasets import europe_scenario

    return europe_scenario().snapshot_problem()


@pytest.fixture(scope="module")
def america_problem():
    from repro.datasets import america_scenario

    return america_scenario().snapshot_problem()


@pytest.fixture(scope="module")
def abilene_problem():
    from repro.datasets import abilene_scenario

    return abilene_scenario().snapshot_problem()


@pytest.fixture(scope="module")
def large_problem():
    from repro.datasets import large_scenario

    return large_scenario(120, 2004).snapshot_problem()


def entropy_objective(problem, values, prior, regularization):
    residual = problem.routing.matvec(values) - problem.snapshot
    return float(residual @ residual) + prior.sum() / regularization * kl_divergence(
        values, prior
    )


class TestBayesianMatchesActiveSet:
    @pytest.mark.parametrize("name", ["europe_problem", "america_problem", "abilene_problem"])
    @pytest.mark.parametrize("regularization", [1e-8, 1.0, 1e3, 1e6])
    def test_equals_stacked_lawson_hanson(self, request, name, regularization):
        problem = request.getfixturevalue(name)
        prior = make_prior(problem, "gravity")
        weight = np.sqrt(1.0 / regularization)
        dense = problem.routing.matrix
        reference = nnls_active_set(
            np.vstack([dense, weight * np.eye(problem.num_pairs)]),
            np.concatenate([problem.snapshot, weight * prior]),
        ).x
        result = BayesianEstimator(regularization=regularization).estimate(problem)
        assert result.diagnostics["converged"] is True
        scale = max(float(reference.max()), 1.0)
        np.testing.assert_allclose(result.vector, reference, rtol=0, atol=1e-8 * scale)


class TestEntropyCertificate:
    @pytest.mark.parametrize("name", ["europe_problem", "abilene_problem"])
    @pytest.mark.parametrize("regularization", [1.0, 1e3, 1e6])
    def test_no_worse_than_tight_quasi_newton(self, request, name, regularization):
        problem = request.getfixturevalue(name)
        prior = make_prior(problem, "gravity")
        matrix = problem.routing.matrix
        kl_weight = prior.sum() / regularization

        def objective(x):
            residual = matrix @ x - problem.snapshot
            ratio = x / prior
            value = residual @ residual + kl_weight * np.sum(x * np.log(ratio) - x + prior)
            gradient = 2.0 * matrix.T @ residual + kl_weight * np.log(ratio)
            return value, gradient

        reference = scipy.optimize.minimize(
            objective,
            prior.copy(),
            jac=True,
            method="L-BFGS-B",
            bounds=[(1e-12, None)] * problem.num_pairs,
            options={"maxiter": 50_000, "ftol": 1e-15, "gtol": 1e-12},
        )
        result = EntropyEstimator(regularization=regularization).estimate(problem)
        assert result.diagnostics["converged"] is True
        assert 0.0 <= result.diagnostics["duality_gap"] <= 1e-10
        dual_value = entropy_objective(problem, result.vector, prior, regularization)
        assert dual_value <= entropy_objective(problem, reference.x, prior, regularization) * (
            1 + 1e-9
        )

    def test_gap_is_primal_minus_dual(self, america_problem):
        problem = america_problem
        prior = make_prior(problem, "gravity")
        link_map = KLMap(prior, prior.sum() / 1e3)
        # Two Newton steps: far enough from the start, short of the optimum.
        result = solve_dual(problem.routing, problem.snapshot, link_map, max_iterations=2)
        y, s = result.multipliers, result.demands
        dual = link_map.weight * float(np.sum(prior - s)) - y @ problem.snapshot - y @ y / 4
        assert result.objective == pytest.approx(
            entropy_objective(problem, s, prior, 1e3), rel=1e-12
        )
        assert result.duality_gap * result.objective == pytest.approx(
            result.objective - dual, rel=1e-6
        )

    def test_zero_prior_pairs_stay_exactly_zero(self, america_problem):
        prior = make_prior(america_problem, "gravity").copy()
        prior[::7] = 0.0
        result = EntropyEstimator(prior=prior).estimate(america_problem)
        assert np.all(result.vector[::7] == 0.0)
        assert np.all(result.vector[prior > 0] > 0.0)
        assert result.diagnostics["converged"] is True


def kl_projection_problem(seed):
    """The routing, loads and prior that ``test_invariants`` draws for ``seed``."""
    rng = np.random.default_rng(seed)
    dense = (rng.uniform(size=(3, 6)) < 0.5).astype(float)
    dense[0] = 1.0
    truth = rng.uniform(0.5, 5.0, size=6)
    prior = rng.uniform(0.5, 5.0, size=6)
    routing = RoutingMatrix(dense, ["L0", "L1", "L2"], [NodePair("A", f"N{i}") for i in range(6)])
    return routing, dense @ truth, prior


class TestRoundingFloor:
    """Near the optimum of a heavily data-weighted fit, a Newton step's
    predicted ascent drops below the rounding of the dual value long before
    the gap meets its tolerance; the solve must still certify."""

    def test_small_problem_with_a_tiny_kl_weight(self):
        routing, loads, prior = kl_projection_problem(556)
        result = solve_dual(routing, loads, KLMap(prior, prior.sum() / 1e8))
        assert result.converged is True
        assert result.iterations <= 10

    @pytest.mark.parametrize("seed", [742, 2370, 4220, 4875, 5609, 5954, 7025, 8048, 9692])
    def test_floor_counts_the_terms_the_value_sums(self, seed):
        # On these KL-projection problems (the invariant property's seeds)
        # g(y) is a difference of terms some 100x larger, so their rounding
        # swamps a floor measured against |g(y)|; the solve then halved its
        # step into null steps until the cap.
        routing, loads, prior = kl_projection_problem(seed)
        result = solve_dual(routing, loads, KLMap(prior, prior.sum() / 1e8))
        assert result.converged is True
        assert result.iterations <= 7

    def test_null_step_ends_the_solve(self, monkeypatch):
        # With the floor switched off, seed 742's backtracking halves the
        # step until it no longer moves y; that ends the solve at once
        # instead of accepting null steps up to the cap.
        monkeypatch.setattr(dual_module, "_VALUE_FLOOR", -np.inf)
        routing, loads, prior = kl_projection_problem(742)
        result = solve_dual(routing, loads, KLMap(prior, prior.sum() / 1e8), max_iterations=100)
        assert result.iterations < 10
        assert result.converged is False

    @pytest.mark.parametrize(
        "build,regularization",
        [(lambda: abilene_scenario(4242), 1e12), (lambda: large_scenario(50, 2004), 1e8)],
        ids=["abilene-4242", "n50-2004"],
    )
    def test_backbones_at_large_regularization(self, build, regularization):
        problem = build().snapshot_problem()
        result = EntropyEstimator(regularization=regularization).estimate(problem)
        assert result.diagnostics["converged"] is True
        assert result.diagnostics["iterations"] <= 10


class TestBudget:
    def test_each_dual_evaluation_ticks_the_budget(self, europe_problem):
        prior = make_prior(europe_problem, "gravity")
        with SolverBudget(max_iterations=3):
            with pytest.raises(BudgetExceededError):
                solve_dual(
                    europe_problem.routing,
                    europe_problem.snapshot,
                    L2Map(prior, 1e-3),
                )


class TestFailures:
    def test_non_finite_loads_raise_solver_error(self, europe_problem):
        loads = europe_problem.snapshot.copy()
        loads[0] = np.nan
        problem = EstimationProblem(routing=europe_problem.routing, link_loads=loads)
        with pytest.raises(SolverError):
            BayesianEstimator(prior=np.ones(problem.num_pairs)).estimate(problem)
        with pytest.raises(SolverError):
            EntropyEstimator(prior=np.ones(problem.num_pairs)).estimate(problem)

    def test_non_finite_prior_raises_solver_error(self, europe_problem):
        prior = np.ones(europe_problem.num_pairs)
        prior[3] = np.inf
        with pytest.raises(SolverError):
            solve_dual(europe_problem.routing, europe_problem.snapshot, L2Map(prior, 1.0))

    def test_failed_factorisation_raises_solver_error(self, europe_problem):
        routing = europe_problem.routing

        class BrokenHessian:
            shape = routing.shape
            matvec = staticmethod(routing.matvec)
            rmatvec = staticmethod(routing.rmatvec)

            @staticmethod
            def link_gram(weights):
                return np.full((routing.num_links,) * 2, np.nan)

        prior = make_prior(europe_problem, "gravity")
        with pytest.raises(SolverError, match="factorised"):
            solve_dual(BrokenHessian(), europe_problem.snapshot, KLMap(prior, 1.0))


def test_bayesian_converges_on_large_scenario(large_problem):
    result = BayesianEstimator().estimate(large_problem)
    assert result.diagnostics["converged"] is True
    assert result.diagnostics["duality_gap"] <= 1e-10
