"""Sparse hot paths never densify; shared workspace pays setup once.

Two guarantees of the large-topology engine:

* the hot estimators (gravity, Kruithof, KL projection, entropy, Bayesian,
  tomogravity) run on the CSR routing matrix without ever materialising
  the dense ``(links, pairs)`` view — enforced here with a
  ``RoutingMatrix`` whose dense view raises;
* a problem's expensive setup (the gravity prior, pair-position index
  arrays) is computed once per problem and shared across every method of a
  sweep, not rebuilt per estimator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimation.base import EstimationProblem
from repro.estimation.registry import get_estimator
from repro.routing.routing_matrix import RoutingMatrix

#: Methods required to stay CSR end to end.  The remaining registered
#: methods (vardi, cao, fanout, worst-case-bounds, generalized-gravity) are
#: permitted to use the dense view.
NO_DENSIFY_METHODS = (
    "gravity",
    "kruithof",
    "kl-projection",
    "entropy",
    "bayesian",
    "tomogravity",
)


class GuardedRoutingMatrix(RoutingMatrix):
    """A routing matrix that fails the test on any densification."""

    @property
    def matrix(self) -> np.ndarray:
        raise AssertionError("routing.matrix read: a sparse hot path densified")


@pytest.fixture(scope="module")
def scenario():
    from repro.datasets import europe_scenario

    return europe_scenario()


@pytest.fixture(scope="module")
def guarded_problems(scenario):
    """Snapshot and series problems whose routing cannot densify."""
    guarded = GuardedRoutingMatrix(
        scenario.routing.native,
        scenario.routing.link_names,
        scenario.routing.pairs,
        network=scenario.network,
    )
    snapshot_base = scenario.snapshot_problem()
    series_base = scenario.series_problem(window_length=5)
    import dataclasses

    return (
        dataclasses.replace(snapshot_base, routing=guarded),
        dataclasses.replace(series_base, routing=guarded),
    )


class TestNoDensification:
    @pytest.mark.parametrize("method", NO_DENSIFY_METHODS)
    def test_estimate_stays_sparse(self, guarded_problems, method):
        snapshot_problem, _ = guarded_problems
        result = get_estimator(method).estimate(snapshot_problem)
        assert result.vector.shape == (snapshot_problem.num_pairs,)
        assert np.all(result.vector >= 0)

    @pytest.mark.parametrize("method", NO_DENSIFY_METHODS)
    def test_estimate_series_stays_sparse(self, guarded_problems, method):
        _, series_problem = guarded_problems
        result = get_estimator(method).estimate_series(series_problem)
        assert result.estimates.shape == (5, series_problem.num_pairs)

    def test_direct_measurement_combiner_stays_sparse(self, scenario, guarded_problems):
        from repro.estimation.partial import DirectMeasurementCombiner
        from repro.topology import NodePair

        snapshot_problem, _ = guarded_problems
        pair = NodePair("AMS", "LON")
        measured = {pair: scenario.busy_mean_matrix().demand(pair)}
        combiner = DirectMeasurementCombiner(get_estimator("entropy"), measured)
        sparse = combiner.estimate(snapshot_problem).vector
        dense = combiner.estimate(scenario.snapshot_problem()).vector
        np.testing.assert_allclose(sparse, dense, rtol=1e-9, atol=1e-9)

    def test_rank_stays_sparse(self, scenario, guarded_problems):
        snapshot_problem, _ = guarded_problems
        expected = np.linalg.matrix_rank(scenario.routing.matrix)
        assert snapshot_problem.routing.rank() == expected

    def test_guard_actually_guards(self, guarded_problems):
        snapshot_problem, _ = guarded_problems
        with pytest.raises(AssertionError, match="densified"):
            snapshot_problem.routing.matrix


class TestSharedWorkspace:
    def test_gravity_prior_built_once_across_methods(self, scenario, monkeypatch):
        import repro.estimation.priors as priors_module

        problem = scenario.snapshot_problem()
        calls = {"count": 0}
        original = priors_module.gravity_prior

        def counting(problem_arg):
            calls["count"] += 1
            return original(problem_arg)

        monkeypatch.setattr(priors_module, "gravity_prior", counting)
        for method in ("entropy", "bayesian", "tomogravity"):
            get_estimator(method).estimate(problem)
        assert calls["count"] == 1

    def test_prior_cached_and_read_only(self, scenario):
        from repro.estimation.priors import make_prior

        problem = scenario.snapshot_problem()
        first = make_prior(problem, "gravity")
        second = make_prior(problem, "gravity")
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0

    def test_pair_positions_cached(self, scenario):
        problem = scenario.snapshot_problem()
        assert problem.pair_positions() is problem.pair_positions()
        # One object per routing: a series problem on the same routing
        # reads the same shared index, nothing is rebuilt per problem.
        series_problem = scenario.series_problem(window_length=4)
        assert series_problem.pair_positions() is problem.pair_positions()
        origins, destinations, origin_cols, destination_cols = problem.pair_positions()
        # The edge totals are ordered by the same labels.
        truth = scenario.busy_mean_matrix()
        assert problem.origin_totals.tolist() == [truth.origin_totals()[o] for o in origins]
        assert problem.destination_totals.tolist() == [
            truth.destination_totals()[d] for d in destinations
        ]
        for position, pair in enumerate(problem.pairs):
            assert origins[origin_cols[position]] == pair.origin
            assert destinations[destination_cols[position]] == pair.destination

    def test_gravity_series_cached_across_methods(self, scenario):
        from repro.estimation.gravity import gravity_vector_series

        problem = scenario.series_problem(window_length=4)
        first = gravity_vector_series(problem)
        second = gravity_vector_series(problem)
        assert first is second
        assert not first.flags.writeable
        # Exclusions bypass the cache and return a writable copy.
        excluded = {problem.pairs[0]}
        with_exclusions = gravity_vector_series(problem, excluded_pairs=excluded)
        assert with_exclusions is not first
        assert with_exclusions[:, 0] == pytest.approx(0.0)

    def test_workspace_is_per_problem(self, scenario):
        from repro.estimation.priors import make_prior

        first_problem = scenario.snapshot_problem()
        second_problem = scenario.snapshot_problem()
        assert make_prior(first_problem, "gravity") is not make_prior(
            second_problem, "gravity"
        )
