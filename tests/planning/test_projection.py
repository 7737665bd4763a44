"""Load-projection tests: utilisations, headroom, growth, lost traffic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PlanningError
from repro.planning import (
    BASELINE,
    FailureCase,
    project_load,
)
from repro.routing import build_routing_matrix
from repro.traffic import TrafficMatrix


class TestProjectLoad:
    def test_triangle_utilisations_by_hand(self, triangle_network, triangle_traffic):
        routing = build_routing_matrix(triangle_network)
        projection = project_load(routing, triangle_traffic)
        # Direct links carry exactly their own demand (capacity 1000).
        assert projection.utilisation_of("A->B") == pytest.approx(0.1)
        assert projection.utilisation_of("B->A") == pytest.approx(0.08)
        assert projection.max_utilisation == pytest.approx(0.1)
        assert projection.headroom == pytest.approx(10.0)
        assert projection.is_feasible
        assert projection.case is BASELINE

    def test_growth_scales_loads(self, triangle_network, triangle_traffic):
        routing = build_routing_matrix(triangle_network)
        base = project_load(routing, triangle_traffic)
        grown = project_load(routing, triangle_traffic, growth=1.5)
        np.testing.assert_allclose(grown.loads, 1.5 * base.loads)
        assert grown.max_utilisation == pytest.approx(1.5 * base.max_utilisation)

    def test_congested_links_threshold(self, triangle_network, triangle_traffic):
        routing = build_routing_matrix(triangle_network)
        projection = project_load(routing, triangle_traffic, threshold=0.09)
        assert projection.congested_links == ("A->B",)

    def test_top_links_sorted(self, triangle_network, triangle_traffic):
        routing = build_routing_matrix(triangle_network)
        top = project_load(routing, triangle_traffic).top_links(2)
        assert [name for name, _ in top] == ["A->B", "B->A"]
        assert top[0][1] >= top[1][1]

    def test_pair_order_mismatch_rejected(self, triangle_network, triangle_traffic):
        routing = build_routing_matrix(triangle_network)
        shuffled = TrafficMatrix(
            tuple(reversed(triangle_traffic.pairs)),
            list(reversed(triangle_traffic.vector)),
        )
        with pytest.raises(PlanningError):
            project_load(routing, shuffled)

    def test_unknown_link_lookup_rejected(self, triangle_network, triangle_traffic):
        routing = build_routing_matrix(triangle_network)
        with pytest.raises(PlanningError):
            project_load(routing, triangle_traffic).utilisation_of("Z->Q")


class TestInfeasibleProjection:
    def test_partition_reports_lost_traffic(self, dumbbell_scenario):
        engine = dumbbell_scenario.planning()
        truth = dumbbell_scenario.busy_mean_matrix()
        case = FailureCase(
            name="link-pair:C<->D", kind="link-pair", failed_links=("C->D", "D->C")
        )
        projection = engine.project(truth, case)
        assert not projection.is_feasible
        left, right = {"A", "B", "C"}, {"D", "E", "F"}
        crossing = [
            pair
            for pair in truth.pairs
            if (pair.origin in left) != (pair.destination in left)
        ]
        assert set(projection.infeasible_pairs) == set(crossing)
        expected_lost = sum(truth.demand(pair) for pair in crossing)
        assert projection.lost_traffic == pytest.approx(expected_lost)
        # The surviving loads only carry the intra-triangle demands.
        surviving_total = truth.total - expected_lost
        assert projection.loads.sum() <= 2 * surviving_total + 1e-9

    def test_feasible_case_loses_nothing(self, dumbbell_scenario):
        engine = dumbbell_scenario.planning()
        truth = dumbbell_scenario.busy_mean_matrix()
        case = FailureCase(name="link:A->B", kind="link", failed_links=("A->B",))
        projection = engine.project(truth, case)
        assert projection.is_feasible
        assert projection.lost_traffic == 0.0
        # Traffic is conserved and re-routed paths are never shorter, so the
        # total link load can only grow relative to the intact topology.
        base = engine.project(truth, BASELINE)
        assert projection.loads.sum() >= base.loads.sum() - 1e-9
