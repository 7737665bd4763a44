"""Exact solves and their certificates on the named backbones.

Vardi's moment fit and the fanout fit are solved exactly by Lawson-Hanson
and certified by a KKT residual; ``kl-projection`` is the I-projection of
its prior, solved by the link-space dual kernel and certified by its
duality gap; Kruithof's IPF is certified by its relative violation of the
edge totals; Cao's pseudo-EM by the relative change of its last sweep.
Each test checks the certificate against an independent computation, and
that a perturbed or capped answer fails it.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from repro.datasets import abilene_scenario, america_scenario, europe_scenario, large_scenario
from repro.errors import EstimationError, SolverError
from repro.estimation import (
    CaoEstimator,
    EstimationProblem,
    KruithofEstimator,
    VardiEstimator,
    get_estimator,
)
from repro.estimation.vardi import link_load_moments
from repro.optimize import kl_divergence
from repro.optimize.nnls import KKT_TOLERANCE
from repro.routing import RoutingMatrix
from repro.topology import NodePair

BUILDERS = {"europe": europe_scenario, "abilene": abilene_scenario, "america": america_scenario}

#: KL(s || gravity prior) of the generalised-iterative-scaling answers that
#: ``kl-projection`` returned before it was solved exactly (seed 2004/4242).
GIS_KL = {
    ("europe", 2004): 1023.36,
    ("europe", 4242): 1085.33,
    ("abilene", 2004): 778.56,
    ("abilene", 4242): 3199.56,
    ("america", 2004): 14814.48,
    ("america", 4242): 14123.07,
}


@functools.cache
def scenario(name: str, seed: int):
    return BUILDERS[name](seed)


def vardi_program(problem, weight):
    """Hessian and linear term of Vardi's ``x' H x - 2 h' x``, built densely."""
    mean, covariance = link_load_moments(problem.series)
    R = problem.routing.matrix
    gram = R.T @ R
    hessian = gram + weight * gram**2
    linear = R.T @ mean + weight * np.einsum("lp,lp->p", R, (R.T @ covariance).T)
    return hessian, linear


class TestVardi:
    @pytest.mark.parametrize("weight", [0.01, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [2004, 4242])
    @pytest.mark.parametrize("name", ["europe", "america"])
    def test_kkt_residual_certifies_the_minimiser(self, name, seed, weight):
        problem = scenario(name, seed).series_problem(window_length=50)
        result = VardiEstimator(poisson_weight=weight).estimate(problem)
        hessian, linear = vardi_program(problem, weight)
        x = result.vector
        independent = np.abs(np.minimum(x, hessian @ x - linear)).max() / np.abs(linear).max()
        assert result.diagnostics["kkt_residual"] <= 1e-12
        assert independent <= 1e-12
        assert result.diagnostics["converged"] is True
        assert "iterations" not in result.diagnostics

    @pytest.mark.parametrize("weight", [0.01, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["europe", "america"])
    def test_matches_an_eigen_factor_oracle(self, name, weight):
        # H = V diag(lam) V' gives min ||lam^.5 V' x - lam^-.5 V' h||^2 =
        # x' H x - 2 h' x + const: the same program on another factor.
        problem = scenario(name, 2004).series_problem(window_length=50)
        hessian, linear = vardi_program(problem, weight)
        eigenvalues, vectors = np.linalg.eigh(hessian)
        oracle, _ = scipy.optimize.nnls(
            np.sqrt(eigenvalues)[:, None] * vectors.T, (vectors.T @ linear) / np.sqrt(eigenvalues)
        )
        estimate = VardiEstimator(poisson_weight=weight).estimate(problem).vector
        assert np.abs(estimate - oracle).max() <= 1e-9 * np.abs(oracle).max()

    def test_moving_mass_breaks_the_certificate(self):
        problem = scenario("europe", 2004).series_problem(window_length=50)
        hessian, linear = vardi_program(problem, 0.01)
        x = VardiEstimator(poisson_weight=0.01).estimate(problem).vector.copy()
        top = np.argsort(-x)[:2]
        x[top[0]] *= 1.001
        residual = np.abs(np.minimum(x, hessian @ x - linear)).max() / np.abs(linear).max()
        assert residual > 1e3 * KKT_TOLERANCE

    def test_zero_poisson_weight_is_rejected(self):
        with pytest.raises(EstimationError):
            VardiEstimator(poisson_weight=0.0)

    def test_singular_hessian_raises_solver_error(self):
        # A pair that crosses no link has a zero Hessian row: no Cholesky.
        pairs = [NodePair("A", "B"), NodePair("B", "A")]
        routing = RoutingMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]), ["L0", "L1"], pairs)
        series = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        problem = EstimationProblem(routing=routing, link_load_series=series)
        with pytest.raises(SolverError):
            VardiEstimator().estimate(problem)


def fanout_residual(problem, window, fanouts):
    """The fanout KKT residual, recomputed from the stacked fit.

    The gradient is divided by the largest ``|d_k o R't_k|`` before the
    ``min`` with the (unitless) fanouts, so the residual is unit-free.
    """
    _, _, origin_col, _ = problem.pair_positions()
    ingress, _ = problem.totals_by_snapshot()
    R = problem.routing.matrix
    blocks = [R * ingress[k, origin_col] for k in range(window)]
    loads = problem.link_load_series[:window]
    gradient = sum(block.T @ (block @ fanouts - load) for block, load in zip(blocks, loads))
    multipliers = {origin: -gradient[origin_col == origin].min() for origin in set(origin_col)}
    shifted = gradient + np.array([multipliers[origin] for origin in origin_col])
    scale = max(np.abs(block.T @ load).max() for block, load in zip(blocks, loads))
    return np.abs(np.minimum(fanouts, shifted / scale)).max()


def moved_mass(problem, fanouts):
    """Two copies with 1e-3 of origin 0's mass moved off its largest fanout.

    It goes to the second largest, or to the smallest (zero on every
    backbone here, so it becomes wrongly non-zero).  The sums still hold,
    but neither fit is optimal.
    """
    _, _, origin_col, _ = problem.pair_positions()
    mine = np.flatnonzero(origin_col == 0)
    order = mine[np.argsort(-fanouts[mine], kind="stable")]
    moved = []
    for receiver in (order[1], order[-1]):
        copy = fanouts.copy()
        copy[order[0]] -= 1e-3
        copy[receiver] += 1e-3
        moved.append(copy)
    return moved


def in_unit(problem, unit):
    """The same window with its loads and ingress ``unit`` times larger."""
    ingress, _ = problem.totals_by_snapshot()
    return EstimationProblem(
        routing=problem.routing,
        link_load_series=problem.link_load_series * unit,
        origin_totals_series=ingress * unit,
    )


class TestFanout:
    # 1e6 is the same traffic in bit/s instead of Mbit/s: the fanouts do not
    # change, so neither may what certifies them.  Window 1 is the wide
    # case (fewer stacked rows than fanouts: the fit interpolates the
    # loads and the factor is a trapezoid); window 50 is tall (14,225 x 600
    # on America).
    @pytest.mark.parametrize("window", [1, 10, 50])
    @pytest.mark.parametrize("unit", [1.0, 1e6])
    @pytest.mark.parametrize("seed", [2004, 4242])
    @pytest.mark.parametrize("name", ["europe", "abilene", "america"])
    def test_estimate_meets_and_perturbation_fails_the_certificate(self, name, seed, unit, window):
        problem = in_unit(scenario(name, seed).series_problem(window_length=window), unit)
        result = get_estimator("fanout", window_length=window).estimate(problem)
        fanouts = np.asarray(result.diagnostics["fanouts"])
        reported = result.diagnostics["kkt_residual"]
        independent = fanout_residual(problem, window, fanouts)
        assert reported == pytest.approx(independent, rel=1e-6, abs=1e-15)
        assert reported <= KKT_TOLERANCE
        assert result.diagnostics["equality_violation"] <= 1e-6
        assert result.diagnostics["converged"] is True
        for moved in moved_mass(problem, fanouts):
            assert fanout_residual(problem, window, moved) > 10 * KKT_TOLERANCE

    def test_peak_allocation_is_the_stack_and_one_factor_buffer(self):
        # The stack is scaled in place, so the factorisation's buffer is the
        # only other copy of it; a scaled copy would make three.
        problem = scenario("america", 2004).series_problem(window_length=10)
        routing = problem.routing
        routing.matrix  # the cached dense view is not the estimate's
        stack_bytes = 10 * routing.num_links * routing.num_pairs * 8
        tracemalloc.start()
        try:
            result = get_estimator("fanout", window_length=10).estimate(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.diagnostics["converged"] is True
        assert peak <= 2.75 * stack_bytes

    def test_above_800_pairs_meets_its_certificate(self):
        scenario_870 = large_scenario(30, 7)
        problem = scenario_870.series_problem(window_length=10)
        assert problem.num_pairs == 870
        result = get_estimator("fanout", window_length=10).estimate(problem)
        assert result.diagnostics["kkt_residual"] <= KKT_TOLERANCE
        assert result.diagnostics["equality_violation"] <= 1e-6
        assert result.diagnostics["converged"] is True


def assert_i_projection(problem, result, prior):
    """``s = p exp(-R'y / c)`` on the prior's support, with the loads matched."""
    s = result.vector
    support = prior > 0
    assert np.all(s[~support] == 0.0)
    log_ratio = np.log(s[support] / prior[support])
    transpose = problem.routing.matrix.T[support]
    multipliers, *_ = np.linalg.lstsq(transpose, log_ratio, rcond=None)
    range_residual = np.linalg.norm(transpose @ multipliers - log_ratio)
    assert range_residual <= 1e-10 * max(1.0, np.linalg.norm(log_ratio))
    misfit = np.abs(problem.routing.matvec(s) - problem.snapshot).max()
    assert misfit <= 1e-6 * problem.snapshot.max()
    assert result.diagnostics["converged"] is True


class TestKLProjection:
    @pytest.mark.parametrize("seed", [2004, 4242])
    @pytest.mark.parametrize("name", ["europe", "abilene", "america"])
    def test_is_the_i_projection_on_the_backbones(self, name, seed):
        problem = scenario(name, seed).snapshot_problem()
        prior = get_estimator("gravity").estimate(problem).vector
        result = get_estimator("kl-projection").estimate(problem)
        assert_i_projection(problem, result, prior)
        assert kl_divergence(result.vector, prior) < GIS_KL[(name, seed)]

    def test_converges_on_measured_data(self):
        measured = scenario("europe", 2004).measured(
            jitter_std_seconds=2.0, loss_probability=0.01, seed=1
        )
        result = get_estimator("kl-projection").estimate(measured.snapshot_problem())
        assert result.diagnostics["converged"] is True

    @pytest.mark.parametrize("num_nodes,seed", [(100, 2004), (200, 2010)])
    def test_converges_on_large_backbones(self, num_nodes, seed):
        problem = large_scenario(num_nodes, seed).snapshot_problem()
        prior = get_estimator("gravity").estimate(problem).vector
        result = get_estimator("kl-projection").estimate(problem)
        assert result.diagnostics["converged"] is True
        misfit = np.abs(problem.routing.matvec(result.vector) - problem.snapshot).max()
        assert misfit <= 1e-6 * problem.snapshot.max()
        assert np.all(result.vector[prior == 0] == 0.0)

    def test_zero_prior_demands_stay_zero(self):
        # Loads of a truth without every seventh demand, and a prior without
        # them: the projection exists on the prior's support.
        backbone = scenario("europe", 2004)
        snapshot = backbone.snapshot_problem()
        truth = backbone.busy_mean_matrix().vector.copy()
        truth[::7] = 0.0
        prior = get_estimator("gravity").estimate(snapshot).vector.copy()
        prior[::7] = 0.0
        problem = EstimationProblem(
            routing=snapshot.routing, link_loads=snapshot.routing.matvec(truth)
        )
        result = get_estimator("kl-projection", prior=prior).estimate(problem)
        assert np.all(result.vector[::7] == 0.0)
        assert_i_projection(problem, result, prior)


def edge_total_violation(problem, estimates, rows, columns):
    """Independent certificate: each snapshot's largest edge-total misfit
    over ``max(1, total)``, the largest over the snapshots."""
    _, _, origin_codes, destination_codes = problem.pair_positions()
    worst = 0.0
    for estimate, row_targets, column_targets in zip(estimates, rows, columns):
        total = row_targets.sum()
        column_targets = column_targets * (total / column_targets.sum())
        misfit = max(
            np.abs(np.bincount(origin_codes, estimate, len(row_targets)) - row_targets).max(),
            np.abs(
                np.bincount(destination_codes, estimate, len(column_targets)) - column_targets
            ).max(),
        )
        worst = max(worst, misfit / max(1.0, total))
    return worst


class TestKruithof:
    @pytest.mark.parametrize("max_iterations", [500, 2])
    @pytest.mark.parametrize("kind", ["snapshot", "series"])
    @pytest.mark.parametrize("prior", ["uniform", "gravity"])
    @pytest.mark.parametrize("name", ["america", "europe", "abilene"])
    def test_converged_is_the_relative_violation_certificate(
        self, name, prior, kind, max_iterations
    ):
        backbone = scenario(name, 2004)
        estimator = KruithofEstimator(prior=prior, max_iterations=max_iterations)
        if kind == "snapshot":
            problem = backbone.snapshot_problem()
            result = estimator.estimate(problem)
            estimates = result.vector[None, :]
            rows, columns = problem.origin_totals[None, :], problem.destination_totals[None, :]
        else:
            problem = backbone.series_problem(window_length=10)
            result = estimator.estimate_series(problem)
            estimates = result.estimates
            rows, columns = problem.totals_by_snapshot()
        diagnostics = result.diagnostics
        relative = diagnostics["relative_violation"]
        assert diagnostics["converged"] is (relative < estimator.tolerance)
        # Two sweeps fit no backbone; the default cap fits every one.
        assert diagnostics["converged"] is (max_iterations == 500)
        independent = edge_total_violation(problem, estimates, rows, columns)
        assert independent == pytest.approx(relative, rel=1e-3, abs=1e-12)


class TestCao:
    @pytest.mark.parametrize("window", [10, 50])
    @pytest.mark.parametrize("seed", [2004, 4242])
    @pytest.mark.parametrize("name", ["europe", "abilene", "america"])
    def test_fixed_point_change_is_the_last_sweep(self, name, seed, window):
        problem = scenario(name, seed).series_problem(window_length=window)
        estimator = CaoEstimator()
        result = estimator.estimate(problem)
        diagnostics = result.diagnostics
        sweeps = diagnostics["iterations"]
        assert 1 < sweeps < estimator.max_iterations
        # One sweep fewer returns the iterate the last sweep started from.
        previous = CaoEstimator(max_iterations=sweeps - 1).estimate(problem)
        change = np.linalg.norm(result.vector - previous.vector) / np.linalg.norm(previous.vector)
        assert diagnostics["fixed_point_change"] == pytest.approx(change, rel=1e-9, abs=0.0)
        assert diagnostics["converged"] is True
        assert diagnostics["fixed_point_change"] < estimator.tolerance
        # Capped one sweep short, the iteration had not settled.
        assert previous.diagnostics["converged"] is False
        assert previous.diagnostics["fixed_point_change"] >= estimator.tolerance
