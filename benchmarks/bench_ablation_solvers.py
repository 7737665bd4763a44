"""Ablation — solver choices behind the estimators.

Compares the Bayesian estimator's link-space dual Newton solve against the
exact Lawson-Hanson active-set NNLS of the stacked system
``[R; sigma^{-1} I] s ~ [t; sigma^{-1} p]`` (same minimiser, different
cost), and measures the cost of the entropy estimator, which runs the same
dual kernel with the KL link map.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import run_once, save_result
from repro.estimation import BayesianEstimator, EntropyEstimator
from repro.estimation.priors import make_prior
from repro.evaluation import mean_relative_error
from repro.optimize import nnls_active_set
from repro.traffic import TrafficMatrix

REGULARIZATION = 1000.0


def test_ablation_solver_choice(benchmark, europe):
    truth = europe.busy_mean_matrix()
    problem = europe.snapshot_problem(truth)

    def run():
        start = time.perf_counter()
        dual = BayesianEstimator(regularization=REGULARIZATION).estimate(problem)
        dual_seconds = time.perf_counter() - start

        prior = make_prior(problem, "gravity")
        weight = np.sqrt(1.0 / REGULARIZATION)
        start = time.perf_counter()
        stacked = nnls_active_set(
            np.vstack([problem.routing.matrix, weight * np.eye(problem.num_pairs)]),
            np.concatenate([problem.snapshot, weight * prior]),
        ).x
        active_set_seconds = time.perf_counter() - start

        start = time.perf_counter()
        entropy = EntropyEstimator(regularization=REGULARIZATION).estimate(problem)
        entropy_seconds = time.perf_counter() - start
        return {
            "dual_mre": mean_relative_error(dual.estimate, truth),
            "active_set_mre": mean_relative_error(TrafficMatrix(problem.pairs, stacked), truth),
            "entropy_mre": mean_relative_error(entropy.estimate, truth),
            "dual_seconds": dual_seconds,
            "active_set_seconds": active_set_seconds,
            "entropy_seconds": entropy_seconds,
            "dual_duality_gap": dual.diagnostics["duality_gap"],
            "solution_difference": float(
                np.linalg.norm(dual.vector - stacked) / max(np.linalg.norm(stacked), 1e-9)
            ),
        }

    data = run_once(benchmark, run)
    save_result("ablation_solvers", data)
    print(
        f"\n[Ablation] Bayesian estimate: dual Newton MRE {data['dual_mre']:.3f} "
        f"({data['dual_seconds'] * 1e3:.1f} ms) vs Lawson-Hanson MRE "
        f"{data['active_set_mre']:.3f} ({data['active_set_seconds'] * 1e3:.1f} ms), "
        f"relative solution difference {data['solution_difference']:.1e}"
    )
    assert data["solution_difference"] < 1e-8
    assert abs(data["dual_mre"] - data["active_set_mre"]) < 1e-6
