"""Unit tests for failure-case enumeration and surviving topologies."""

from __future__ import annotations

import pytest

from repro.errors import PlanningError, TopologyError
from repro.planning import BASELINE, FailureCase, enumerate_failures, surviving_network


class TestFailureCase:
    def test_baseline_fails_nothing(self):
        assert BASELINE.kind == "baseline"
        assert BASELINE.failed_links == () and BASELINE.failed_nodes == ()

    def test_baseline_with_failures_rejected(self):
        with pytest.raises(PlanningError):
            FailureCase(name="bad", kind="baseline", failed_links=("A->B",))

    def test_non_baseline_must_fail_something(self):
        with pytest.raises(PlanningError):
            FailureCase(name="empty", kind="link")

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanningError):
            FailureCase(name="x", kind="meteor", failed_links=("A->B",))

    def test_empty_name_rejected(self):
        with pytest.raises(PlanningError):
            FailureCase(name="", kind="link", failed_links=("A->B",))


class TestEnumeration:
    def test_single_link_cases(self, dumbbell_network):
        cases = enumerate_failures(dumbbell_network, kinds=("link",))
        assert len(cases) == dumbbell_network.num_links
        assert [c.failed_links[0] for c in cases] == list(dumbbell_network.link_names)
        assert all(c.kind == "link" and not c.failed_nodes for c in cases)

    def test_link_pair_cases_group_both_directions(self, dumbbell_network):
        cases = enumerate_failures(dumbbell_network, kinds=("link-pair",))
        assert len(cases) == dumbbell_network.num_links // 2
        bridge = [c for c in cases if c.name == "link-pair:C<->D"]
        assert len(bridge) == 1
        assert set(bridge[0].failed_links) == {"C->D", "D->C"}

    def test_node_cases(self, dumbbell_network):
        cases = enumerate_failures(dumbbell_network, kinds=("node",))
        assert [c.failed_nodes[0] for c in cases] == list(dumbbell_network.node_names)

    def test_baseline_prepended(self, dumbbell_network):
        cases = enumerate_failures(dumbbell_network, include_baseline=True)
        assert cases[0] is BASELINE
        assert len(cases) == dumbbell_network.num_links + 1

    def test_kind_order_respected(self, dumbbell_network):
        cases = enumerate_failures(dumbbell_network, kinds=("node", "link"))
        kinds = [c.kind for c in cases]
        assert kinds == ["node"] * dumbbell_network.num_nodes + ["link"] * dumbbell_network.num_links

    def test_unknown_kind_rejected(self, dumbbell_network):
        with pytest.raises(PlanningError):
            enumerate_failures(dumbbell_network, kinds=("fire",))
        with pytest.raises(PlanningError):
            enumerate_failures(dumbbell_network, kinds=("baseline",))


class TestSurvivingNetwork:
    def test_link_failure_drops_only_that_link(self, dumbbell_network):
        case = FailureCase(name="link:C->D", kind="link", failed_links=("C->D",))
        survivor = surviving_network(dumbbell_network, case)
        assert survivor.num_nodes == dumbbell_network.num_nodes
        assert survivor.num_links == dumbbell_network.num_links - 1
        assert "C->D" not in survivor
        assert "D->C" in survivor

    def test_node_failure_drops_incident_links(self, dumbbell_network):
        case = FailureCase(name="node:C", kind="node", failed_nodes=("C",))
        survivor = surviving_network(dumbbell_network, case)
        assert not survivor.has_node("C")
        assert all("C" not in (l.source, l.target) for l in survivor.links)

    def test_survivor_preserves_canonical_order(self, dumbbell_network):
        case = FailureCase(name="link:A->B", kind="link", failed_links=("A->B",))
        survivor = surviving_network(dumbbell_network, case)
        expected = [name for name in dumbbell_network.link_names if name != "A->B"]
        assert list(survivor.link_names) == expected

    def test_unknown_elements_rejected(self, dumbbell_network):
        with pytest.raises(PlanningError):
            surviving_network(
                dumbbell_network,
                FailureCase(name="x", kind="link", failed_links=("Z->Q",)),
            )
        with pytest.raises(PlanningError):
            surviving_network(
                dumbbell_network,
                FailureCase(name="x", kind="node", failed_nodes=("Z",)),
            )

    def test_bridge_pair_failure_partitions(self, dumbbell_network):
        case = FailureCase(
            name="link-pair:C<->D", kind="link-pair", failed_links=("C->D", "D->C")
        )
        survivor = surviving_network(dumbbell_network, case)
        with pytest.raises(TopologyError):
            survivor.validate()
