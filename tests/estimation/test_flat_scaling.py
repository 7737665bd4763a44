"""Flat tomogravity on generated backbones.

Large topologies are estimated with one flat tomogravity solve on the
link-space dual kernel over the whole backbone, with no region
decomposition.  These tests pin, across sizes and seeds of
:func:`~repro.datasets.large_scenario`, the properties that make the flat
solve the right tool at scale:

* the solve is certified: ``converged`` holds and the relative duality
  gap is within :data:`~repro.optimize.dual.GAP_TOLERANCE`;
* the tomographic step earns its cost: it removes almost all of the
  gravity prior's link-load misfit;
* the sparse backend the builder auto-selects gives the dense answer;
* the batched series path equals the per-snapshot loop;
* the supervisor serves it without degrading to a fallback.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.datasets import large_scenario
from repro.estimation import get_estimator
from repro.optimize.dual import GAP_TOLERANCE
from repro.resilience import SupervisedEstimator
from repro.resilience.report import degradation_from_diagnostics

#: (num_nodes, seed) of the generated backbones; the largest has 6320 demands.
CASES = ((24, 3), (40, 7), (60, 11), (80, 2004))


@pytest.fixture(scope="module", params=CASES, ids=lambda case: f"n{case[0]}-seed{case[1]}")
def scenario(request):
    num_nodes, seed = request.param
    return large_scenario(num_nodes, seed=seed, busy_length=4, num_samples=8)


def link_misfit(problem, vector):
    return float(np.linalg.norm(problem.routing.matvec(vector) - problem.snapshot))


def test_solve_is_certified(scenario):
    result = get_estimator("tomogravity").estimate(scenario.snapshot_problem())
    diagnostics = result.diagnostics
    assert diagnostics["converged"] is True
    assert 0.0 <= diagnostics["duality_gap"] <= GAP_TOLERANCE
    assert np.all(np.isfinite(result.vector))
    assert np.all(result.vector >= 0.0)


def test_tomographic_step_removes_most_of_the_prior_misfit(scenario):
    problem = scenario.snapshot_problem()
    prior = get_estimator("gravity").estimate(problem).vector
    refined = get_estimator("tomogravity").estimate(problem).vector
    assert link_misfit(problem, refined) <= 0.05 * link_misfit(problem, prior)


def test_sparse_and_dense_backends_agree(scenario):
    problem = scenario.snapshot_problem()
    results = {
        backend: get_estimator("tomogravity").estimate(
            dataclasses.replace(problem, routing=scenario.routing.with_backend(backend))
        )
        for backend in ("dense", "sparse")
    }
    dense, sparse = results["dense"].vector, results["sparse"].vector
    np.testing.assert_allclose(sparse, dense, rtol=1e-6, atol=1e-6 * dense.max())


def test_series_matches_per_snapshot_loop(scenario):
    problem = scenario.series_problem(window_length=4)
    batched = get_estimator("tomogravity").estimate_series(problem)
    for index in range(4):
        single = get_estimator("tomogravity").estimate(problem.at_snapshot(index))
        np.testing.assert_allclose(
            batched.estimates[index],
            single.vector,
            rtol=1e-6,
            atol=1e-6 * single.vector.max(),
        )


def test_supervisor_serves_the_flat_solve(scenario):
    problem = scenario.snapshot_problem()
    direct = get_estimator("tomogravity").estimate(problem)
    supervised = SupervisedEstimator(
        primary="tomogravity", fallbacks=("gravity",)
    ).estimate(problem)
    report = degradation_from_diagnostics(supervised.diagnostics)
    assert not report.degraded
    assert report.used == "tomogravity"
    np.testing.assert_allclose(supervised.vector, direct.vector)
