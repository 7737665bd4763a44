"""Dense-vs-sparse estimator parity for every registered method.

The sparse fast paths (CSR operator products, link-space Gram matrices,
matrix-free solvers) must be performance knobs, not different
methods: on the same observables, every registered estimator has to
produce the same estimate on a sparse routing backend as on a dense one —
both through ``estimate`` and through the batched ``estimate_series``.

Closed-form and LP-exact methods agree essentially to machine precision;
iterative solvers (entropy, Bayesian, tomogravity, KL projection, Vardi)
agree to solver tolerance, since the two backends' products round
differently along the iteration.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.estimation.registry import available_estimators, get_estimator

#: Constructor arguments needed by methods that are not default-constructible.
METHOD_PARAMS = {"generalized-gravity": {"peering_nodes": set()}}

#: Relative tolerance per method; unlisted methods are exact paths.
METHOD_RTOL = {
    "bayesian": 1e-5,
    "entropy": 1e-3,
    "tomogravity": 1e-3,
    "kl-projection": 1e-4,
    "vardi": 1e-3,
    "cao": 1e-4,
    "supervised": 1e-3,  # default primary is tomogravity
}
DEFAULT_RTOL = 1e-9

SCENARIOS = ("europe", "abilene")
WINDOW = 8


@pytest.fixture(scope="module")
def scenario_problems():
    """Per-scenario (dense problem, sparse problem) pairs with shared data."""
    from repro.datasets import abilene_scenario, europe_scenario

    builders = {"europe": europe_scenario, "abilene": abilene_scenario}
    problems = {}
    for name in SCENARIOS:
        scenario = builders[name]()
        base = scenario.series_problem(window_length=WINDOW)
        problems[name] = {
            backend: dataclasses.replace(
                base, routing=scenario.routing.with_backend(backend)
            )
            for backend in ("dense", "sparse")
        }
    return problems


def make_estimator(name):
    return get_estimator(name, **METHOD_PARAMS.get(name, {}))


def assert_close(name, dense_values, sparse_values):
    rtol = METHOD_RTOL.get(name, DEFAULT_RTOL)
    scale = max(float(np.abs(dense_values).max(initial=0.0)), 1.0)
    np.testing.assert_allclose(
        dense_values, sparse_values, rtol=rtol, atol=rtol * scale
    )


@pytest.mark.parametrize("scenario_name", SCENARIOS)
@pytest.mark.parametrize("method", available_estimators())
def test_estimate_matches_across_backends(scenario_problems, scenario_name, method):
    problems = scenario_problems[scenario_name]
    dense = make_estimator(method).estimate(problems["dense"])
    sparse = make_estimator(method).estimate(problems["sparse"])
    assert_close(method, dense.vector, sparse.vector)


@pytest.mark.parametrize("scenario_name", SCENARIOS)
@pytest.mark.parametrize("method", available_estimators())
def test_estimate_series_matches_across_backends(
    scenario_problems, scenario_name, method
):
    problems = scenario_problems[scenario_name]
    dense = make_estimator(method).estimate_series(problems["dense"])
    sparse = make_estimator(method).estimate_series(problems["sparse"])
    assert dense.estimates.shape == sparse.estimates.shape == (
        WINDOW,
        problems["dense"].num_pairs,
    )
    assert_close(method, dense.estimates, sparse.estimates)
