"""Every registered estimator is invariant to the order of the links.

The rows of the routing matrix carry no meaning beyond their labels:
listing the same links, with their loads, in another order describes the
same measurements.  So on the same observables every registered estimator
has to return the same estimate when the routing rows and the link loads
are permuted together — both through ``estimate`` and through the batched
``estimate_series``, on Europe and Abilene.

Closed-form and LP-exact methods agree to rounding; iterative solvers
(entropy, Bayesian, tomogravity, KL projection, Vardi, Cao) sum their
link-space products in another order, which their certificates keep far
below the shared tolerance.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.estimation.registry import available_estimators, get_estimator
from repro.routing import RoutingMatrix

#: Constructor arguments needed by methods that are not default-constructible.
METHOD_PARAMS = {"generalized-gravity": {"peering_nodes": set()}}

#: Relative tolerance shared by every method.
TOLERANCE = 1e-9

SCENARIOS = ("europe", "abilene")
WINDOW = 8
SEED = 2004


def permute_links(problem, order):
    """``problem`` with its routing rows and link loads listed in ``order``."""
    routing = problem.routing
    permuted = RoutingMatrix(
        routing.native[order],
        [routing.link_names[index] for index in order],
        routing.pairs,
        network=routing.network,
    )
    return dataclasses.replace(
        problem,
        routing=permuted,
        link_loads=None if problem.link_loads is None else problem.link_loads[order],
        link_load_series=(
            None if problem.link_load_series is None else problem.link_load_series[:, order]
        ),
    )


@pytest.fixture(scope="module")
def scenario_problems():
    """Per-scenario (original problem, link-permuted problem) pairs."""
    from repro.datasets import abilene_scenario, europe_scenario

    builders = {"europe": europe_scenario, "abilene": abilene_scenario}
    problems = {}
    for name in SCENARIOS:
        base = builders[name]().series_problem(window_length=WINDOW)
        order = np.random.default_rng(SEED).permutation(base.routing.num_links)
        assert not np.array_equal(order, np.arange(base.routing.num_links))
        problems[name] = (base, permute_links(base, order))
    return problems


def make_estimator(name):
    return get_estimator(name, **METHOD_PARAMS.get(name, {}))


def assert_close(original, permuted):
    scale = max(float(np.abs(original).max(initial=0.0)), 1.0)
    np.testing.assert_allclose(permuted, original, rtol=TOLERANCE, atol=TOLERANCE * scale)


def test_permutation_relabels_the_same_measurements(scenario_problems):
    for base, permuted in scenario_problems.values():
        demands = np.linspace(1.0, 2.0, base.num_pairs)
        by_link = dict(zip(base.routing.link_names, base.routing.matvec(demands)))
        relabelled = dict(zip(permuted.routing.link_names, permuted.routing.matvec(demands)))
        assert relabelled == by_link
        assert dict(zip(permuted.routing.link_names, permuted.snapshot)) == dict(
            zip(base.routing.link_names, base.snapshot)
        )


@pytest.mark.parametrize("scenario_name", SCENARIOS)
@pytest.mark.parametrize("method", available_estimators())
def test_estimate_is_invariant_to_link_order(scenario_problems, scenario_name, method):
    base, permuted = scenario_problems[scenario_name]
    original = make_estimator(method).estimate(base)
    reordered = make_estimator(method).estimate(permuted)
    assert_close(original.vector, reordered.vector)


@pytest.mark.parametrize("scenario_name", SCENARIOS)
@pytest.mark.parametrize("method", available_estimators())
def test_estimate_series_is_invariant_to_link_order(scenario_problems, scenario_name, method):
    base, permuted = scenario_problems[scenario_name]
    original = make_estimator(method).estimate_series(base)
    reordered = make_estimator(method).estimate_series(permuted)
    assert original.estimates.shape == reordered.estimates.shape == (WINDOW, base.num_pairs)
    assert_close(original.estimates, reordered.estimates)
