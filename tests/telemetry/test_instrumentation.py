"""Telemetry wired through the estimation stack.

Every estimator's ``estimate``/``estimate_series`` opens a stage span
automatically (via ``Estimator.__init_subclass__``) and folds its scalar
diagnostics into the span attributes; the solver loops feed iteration
counters through their existing ``budget_tick`` call sites.  And all of
it must collapse to flag checks when telemetry is disabled.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.estimation.registry import get_estimator
from repro.optimize.dual import GAP_TOLERANCE


def spans_named(records, name):
    return [r for r in records if r.name == name]


class TestEstimatorAutoSpans:
    def test_estimate_opens_span_with_diagnostics(
        self, telemetry_on, small_snapshot_problem
    ):
        get_estimator("tomogravity").estimate(small_snapshot_problem)
        estimate_spans = spans_named(telemetry.drain_spans(), "estimate")
        assert estimate_spans, "estimate() did not open a stage span"
        root = [s for s in estimate_spans if s.attributes["method"] == "tomogravity"]
        (record,) = root
        assert record.attributes["n_pairs"] == small_snapshot_problem.num_pairs
        # scalar diagnostics are folded in under their canonical names
        assert "residual_norm" in record.attributes
        assert record.label() == "estimate[tomogravity]"

    def test_estimate_series_opens_series_span(
        self, telemetry_on, small_scenario_session
    ):
        problem = small_scenario_session.series_problem(window_length=4)
        get_estimator("fanout").estimate_series(problem)
        records = telemetry.drain_spans()
        assert spans_named(records, "estimate_series")

    @pytest.mark.parametrize("method", ["bayesian", "entropy", "tomogravity"])
    def test_certificate_rides_on_the_span(
        self, telemetry_on, small_snapshot_problem, method
    ):
        # The trace alone must say how far to trust a dual-kernel estimate.
        result = get_estimator(method).estimate(small_snapshot_problem)
        (record,) = [
            s
            for s in spans_named(telemetry.drain_spans(), "estimate")
            if s.attributes["method"] == method
        ]
        assert record.attributes["duality_gap"] == result.diagnostics["duality_gap"]
        assert record.attributes["duality_gap"] <= GAP_TOLERANCE
        assert record.attributes["converged"] is True
        assert record.attributes["iterations"] == result.diagnostics["iterations"]

    def test_disabled_estimate_records_nothing(self, small_snapshot_problem):
        get_estimator("tomogravity").estimate(small_snapshot_problem)
        assert telemetry.collected_spans() == ()


class TestSolverCounters:
    def test_iterative_solver_feeds_ticks_and_counter(
        self, telemetry_on, small_snapshot_problem
    ):
        get_estimator("entropy", prior="gravity").estimate(small_snapshot_problem)
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters.get("solver.iterations", 0) > 0
        records = telemetry.drain_spans()
        (record,) = [
            s
            for s in spans_named(records, "estimate")
            if s.attributes["method"] == "entropy"
        ]
        assert record.attributes["ticks"] > 0
        assert record.attributes["ticks"] == counters["solver.iterations"]

    def test_ipf_metrics(self, telemetry_on, small_snapshot_problem):
        get_estimator("kruithof").estimate(small_snapshot_problem)
        snapshot = telemetry.metrics_snapshot()
        assert snapshot["counters"].get("ipf.sweeps", 0) > 0
        assert "ipf.max_violation" in snapshot["histograms"]

    def test_workspace_cache_counters(self, telemetry_on, small_scenario_session):
        # a fresh problem has an empty shared workspace: the first estimate
        # must miss, the second must hit
        problem = small_scenario_session.snapshot_problem()
        estimator = get_estimator("tomogravity")
        estimator.estimate(problem)
        estimator.estimate(problem)
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters.get("workspace.cache_misses", 0) >= 1
        assert counters.get("workspace.cache_hits", 0) >= 1


class TestSupervisorCounters:
    def test_fallback_emits_counters_and_events(
        self, telemetry_on, small_snapshot_problem
    ):
        estimator = get_estimator(
            "supervised",
            primary="entropy",
            primary_params={"prior": "gravity"},
            fallbacks=("gravity",),
            max_iterations=2,  # the budget always trips the primary
            retries=1,
        )
        with pytest.warns(RuntimeWarning):
            result = estimator.estimate(small_snapshot_problem)
        assert result.diagnostics["degradation"]["used"] == "gravity"
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters.get("supervisor.retries", 0) >= 1
        assert counters.get("supervisor.budget_trips", 0) >= 2  # primary + retry
        assert counters.get("supervisor.fallbacks", 0) == 1
        records = telemetry.drain_spans()
        event_names = {
            name for record in records for (_, name, _) in record.events
        }
        assert "supervisor.retry" in event_names
        assert "supervisor.fallback" in event_names

    def test_attempts_hops_and_budget_trip_events(
        self, telemetry_on, small_snapshot_problem
    ):
        estimator = get_estimator(
            "supervised",
            primary="entropy",
            primary_params={"prior": "gravity"},
            fallbacks=("gravity",),
            max_iterations=2,
            retries=1,
        )
        with pytest.warns(RuntimeWarning):
            estimator.estimate(small_snapshot_problem)
        snapshot = telemetry.metrics_snapshot()
        counters = snapshot["counters"]
        # Primary attempt + one retry + the fallback that succeeds.
        assert counters["supervisor.attempts"] == 3
        assert counters["supervisor.chain_hops"] == 1
        assert snapshot["histograms"]["supervisor.attempts_per_call"]["count"] == 1
        records = telemetry.drain_spans()
        events = [
            (name, attributes)
            for record in records
            for (_, name, attributes) in record.events
        ]
        trips = [attributes for name, attributes in events if name == "supervisor.budget_trip"]
        assert len(trips) == 2  # primary attempt and its retry
        for attributes in trips:
            assert attributes["method"] == "entropy"
            assert attributes["ticks"] is not None
        hops = [attributes for name, attributes in events if name == "supervisor.chain_hop"]
        assert [attributes["method"] for attributes in hops] == ["gravity"]

    def test_construct_failure_counted_and_evented(
        self, telemetry_on, small_snapshot_problem
    ):
        estimator = get_estimator(
            "supervised",
            primary="entropy",
            primary_params={"no_such_option": 1.0},
            fallbacks=("gravity",),
            retries=0,
        )
        with pytest.warns(RuntimeWarning):
            estimator.estimate(small_snapshot_problem)
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters["supervisor.construct_failures"] == 1
        assert counters["supervisor.attempts"] == 2  # failed construct + fallback
        records = telemetry.drain_spans()
        event_names = {name for record in records for (_, name, _) in record.events}
        assert "supervisor.construct_failure" in event_names

