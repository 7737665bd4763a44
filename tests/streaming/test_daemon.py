"""Tests for the streaming estimation daemon."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import telemetry
from repro.errors import EstimationError, StreamingError
from repro.estimation.base import EstimationProblem
from repro.estimation.registry import get_estimator
from repro.measurement.collector import edge_counter_names
from repro.resilience.faults import PollLossBurst, fault_plan
from repro.streaming import PollStream, StreamingEstimator


def batch_problem(routing, collector):
    """Batch series problem from a collector's measured data (the reference path)."""
    loads = collector.measured_link_loads()
    demands = collector.measured_traffic_series().as_array()
    pairs = routing.pairs
    origins = tuple(dict.fromkeys(pair.origin for pair in pairs))
    destinations = tuple(dict.fromkeys(pair.destination for pair in pairs))
    origin_index = {name: idx for idx, name in enumerate(origins)}
    destination_index = {name: idx for idx, name in enumerate(destinations)}
    origin_cols = np.array([origin_index[pair.origin] for pair in pairs])
    destination_cols = np.array([destination_index[pair.destination] for pair in pairs])
    num_snapshots = loads.shape[0]
    origin_totals = np.zeros((num_snapshots, len(origins)))
    destination_totals = np.zeros((num_snapshots, len(destinations)))
    for snapshot in range(num_snapshots):
        np.add.at(origin_totals[snapshot], origin_cols, demands[snapshot])
        np.add.at(destination_totals[snapshot], destination_cols, demands[snapshot])
    return EstimationProblem(
        routing=routing,
        link_load_series=loads,
        origin_totals_series=origin_totals,
        destination_totals_series=destination_totals,
    )


def capture_problems(daemon):
    """Record each poll's problem, by sequence, as the daemon estimates it."""
    problems = {}
    original = daemon._estimator.estimate

    def capture(problem):
        problems[daemon.sequence - 1] = problem
        return original(problem)

    daemon._estimator.estimate = capture
    return problems


class TestBatchAgreement:
    @pytest.mark.parametrize("method", ["tomogravity", "kruithof", "entropy"])
    def test_streaming_matches_estimate_series_on_clean_day(
        self, method, stream_scenario, collector_factory
    ):
        series = stream_scenario.day_series
        routing = stream_scenario.routing
        stream = PollStream.from_collector(collector_factory(), series)
        daemon = StreamingEstimator.from_collector(collector_factory(), method=method)
        records = list(daemon.run(stream))
        assert len(records) == len(series)
        assert not any(record.stale for record in records)
        assert all(record.method == method for record in records)
        # Every update's certificate is read and none is breached.
        assert all(record.converged and not record.degraded for record in records)
        assert daemon.watchdog_checks == len(records)
        assert daemon.watchdog_resolves == daemon.degraded_updates == 0

        reference_collector = collector_factory()
        reference_collector.collect(series)
        problem = batch_problem(routing, reference_collector)
        reference = get_estimator(method).estimate_series(problem)
        streamed = np.stack([record.estimate for record in records])
        np.testing.assert_allclose(
            streamed, np.maximum(reference.estimates, 0.0), rtol=1e-3, atol=1e-2
        )

    def test_every_kruithof_record_is_a_cold_estimate(self, stream_scenario, collector_factory):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(collector_factory(), method="kruithof")
        problems = capture_problems(daemon)
        records = list(daemon.run(stream))
        assert len(problems) == len(records) == len(stream_scenario.day_series)
        for record in records:
            cold = get_estimator("kruithof").estimate(problems[record.sequence])
            np.testing.assert_array_equal(record.estimate, cold.vector)
            assert record.iterations == cold.diagnostics["iterations"]

    def test_record_after_a_degraded_poll_is_a_cold_estimate(
        self, stream_scenario, collector_factory
    ):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(collector_factory(), method="kruithof")
        problems = capture_problems(daemon)
        capture = daemon._estimator.estimate

        def uncertified_at_sequence_3(problem):
            result = capture(problem)
            if daemon.sequence - 1 == 3:
                result.diagnostics["converged"] = False
            return result

        daemon._estimator.estimate = uncertified_at_sequence_3
        with pytest.warns(RuntimeWarning, match="converged=False"):
            records = list(daemon.run(stream))
        assert [record.sequence for record in records if record.degraded] == [3]
        gravity = get_estimator("gravity").estimate(problems[3])
        np.testing.assert_array_equal(records[3].estimate, gravity.vector)
        # The gravity answer seeds nothing: the next poll is Kruithof's own fit.
        for record in records[4:]:
            cold = get_estimator("kruithof").estimate(problems[record.sequence])
            np.testing.assert_array_equal(record.estimate, cold.vector)


class TestEdgeCounters:
    def test_kruithof_certifies_every_poll_under_jitter(
        self, stream_scenario, collector_factory
    ):
        # With jitter the ingress and egress counters answer at different
        # times, so the two totals' sums differ by a little more than
        # Kruithof's tolerance; the fit rescales them and certifies.
        options = dict(jitter_std_seconds=0.001, num_pollers=3)
        stream = PollStream.from_collector(
            collector_factory(**options), stream_scenario.day_series
        )
        daemon = StreamingEstimator.from_collector(
            collector_factory(**options), method="kruithof"
        )
        problems = capture_problems(daemon)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = list(daemon.run(stream))
        assert len(records) == len(stream_scenario.day_series)
        assert not any(record.degraded or record.stale for record in records)
        assert all(record.method == "kruithof" and record.converged for record in records)
        mismatch = [
            abs(problem.origin_totals.sum() / problem.destination_totals.sum() - 1.0)
            for problem in problems.values()
        ]
        assert max(mismatch) > 1e-9

    def test_lost_ingress_counter_is_held_like_a_lost_link(
        self, stream_scenario, collector_factory
    ):
        routing = stream_scenario.routing
        origin = routing.pairs.codes()[0][0]
        link = routing.link_names[0]
        # Round 4 closes interval 3: one ingress counter and one link go dark.
        plan = fault_plan(
            PollLossBurst(start_round=4, num_rounds=1, objects=(f"ingress:{origin}", link)),
            seed=0,
        )
        stream = PollStream.from_collector(
            collector_factory(fault_plan=plan), stream_scenario.day_series
        )
        lost = np.flatnonzero(stream.lost[4])
        assert [stream.object_names[column] for column in lost] == [link, f"ingress:{origin}"]
        daemon = StreamingEstimator.from_collector(
            collector_factory(fault_plan=plan), method="kruithof"
        )
        problems = capture_problems(daemon)
        records = list(daemon.run(stream))
        record = records[3]
        assert not record.stale and not record.degraded and record.converged
        assert record.valid_fraction == 1.0 - 1.0 / routing.num_links
        before, during = problems[2], problems[3]
        # The lost counters hold their last rates; every other counter is fresh.
        assert during.origin_totals[0] == before.origin_totals[0]
        assert during.link_loads[0] == before.link_loads[0]
        assert np.all(during.origin_totals[1:] != before.origin_totals[1:])
        assert np.all(during.destination_totals != before.destination_totals)


class TestStaleness:
    def test_total_outage_holds_estimate_with_stale_flags(
        self, stream_scenario, collector_factory
    ):
        plan = fault_plan(PollLossBurst(start_round=4, num_rounds=3, fraction=1.0), seed=0)
        stream = PollStream.from_collector(
            collector_factory(fault_plan=plan), stream_scenario.day_series
        )
        daemon = StreamingEstimator.from_collector(
            collector_factory(fault_plan=plan), method="tomogravity"
        )
        records = list(daemon.run(stream))
        stale = [record for record in records if record.stale]
        # Rounds 4-6 lost: intervals 3-6 have no fresh closing poll for any
        # link until the catch-up poll at round 7.
        assert stale, "outage produced no stale records"
        streaks = [record.stale_intervals for record in stale]
        assert streaks == list(range(1, len(stale) + 1))
        held_from = records[stale[0].sequence - 1]
        for record in stale:
            assert record.method == "held"
            assert record.valid_fraction == 0.0
            np.testing.assert_array_equal(record.estimate, held_from.estimate)
        # Recovery: the poll after the outage produces a real update again.
        after = records[stale[-1].sequence + 1]
        assert not after.stale and after.method == "tomogravity"

    def test_partial_loss_still_updates(self, stream_scenario, collector_factory):
        plan = fault_plan(PollLossBurst(start_round=4, num_rounds=2, fraction=0.4), seed=2)
        stream = PollStream.from_collector(
            collector_factory(fault_plan=plan), stream_scenario.day_series
        )
        daemon = StreamingEstimator.from_collector(
            collector_factory(fault_plan=plan),
            method="tomogravity",
            min_valid_fraction=0.25,
        )
        records = list(daemon.run(stream))
        assert not any(record.stale for record in records)
        degraded_rounds = [r for r in records if r.valid_fraction < 1.0]
        assert degraded_rounds, "loss burst left no partially-valid rounds"

    def test_cold_start_during_outage_emits_zero_estimate(
        self, stream_scenario, collector_factory
    ):
        plan = fault_plan(PollLossBurst(start_round=0, num_rounds=3, fraction=1.0), seed=0)
        stream = PollStream.from_collector(
            collector_factory(fault_plan=plan), stream_scenario.day_series
        )
        daemon = StreamingEstimator.from_collector(
            collector_factory(fault_plan=plan), method="tomogravity"
        )
        records = list(daemon.run(stream))
        assert records[0].stale
        np.testing.assert_array_equal(records[0].estimate, 0.0)


class TestWatchdog:
    """The certificate each update carries is the daemon's only trust rule."""

    def test_degraded_update_falls_back_to_supervised_chain(
        self, stream_scenario, collector_factory, monkeypatch
    ):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(collector_factory(), method="tomogravity")

        original = daemon._estimator.estimate
        failures = {"left": 2}

        def flaky_estimate(problem):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise EstimationError("injected estimate failure")
            return original(problem)

        monkeypatch.setattr(daemon._estimator, "estimate", flaky_estimate)
        with pytest.warns(RuntimeWarning, match="tomogravity estimate failed"):
            records = list(daemon.run(stream))
        degraded = [record for record in records if record.degraded]
        assert [record.sequence for record in degraded] == [0, 1]
        assert daemon.degraded_updates == 2
        # A raised estimate carries no certificate to read.
        assert daemon.watchdog_resolves == 0
        assert daemon.watchdog_checks == len(records) - 2
        for record in degraded:
            assert record.method == "supervised"
            assert not record.stale

    def test_uncertified_update_falls_back_to_supervised_chain(
        self, stream_scenario, collector_factory, monkeypatch
    ):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(collector_factory(), method="tomogravity")
        assert daemon._supervisor.require_convergence is True

        original = daemon._estimator.estimate
        problems = {}

        def uncertified_at_sequence_4(problem):
            sequence = daemon.sequence - 1
            problems[sequence] = problem
            result = original(problem)
            if sequence == 4:
                result.diagnostics["converged"] = False
            return result

        monkeypatch.setattr(daemon._estimator, "estimate", uncertified_at_sequence_4)
        with pytest.warns(RuntimeWarning, match="converged=False"):
            records = list(daemon.run(stream))
        assert [record.sequence for record in records if record.degraded] == [4]
        assert daemon.watchdog_resolves == 1
        assert daemon.degraded_updates == 1
        assert daemon.watchdog_checks == len(records)
        # The fallback chain answers; tomogravity is not solved again.
        replaced = records[4]
        assert replaced.method == "supervised"
        gravity = get_estimator("gravity").estimate(problems[4])
        np.testing.assert_array_equal(replaced.estimate, gravity.vector)


class TestEpochChurn:
    def test_reroute_bumps_epoch_and_solves_cold_on_the_new_routing(
        self, stream_scenario, collector_factory
    ):
        routing = stream_scenario.routing
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(collector_factory(), method="kruithof")
        problems = capture_problems(daemon)

        failed_link = routing.link_names[0]
        records = []
        result = None
        for record in daemon.run(stream):
            records.append(record)
            if record.sequence == 2:
                result = daemon.apply_reroute(failed_links=[failed_link])

        assert result is not None and result.rerouted
        # Epoch tagging: records before the reroute are epoch 0, after 1.
        assert [record.epoch for record in records] == [0] * 3 + [1] * (len(records) - 3)
        # The first record after the reroute is a cold estimate of a
        # problem on the new routing.
        assert problems[3].routing is daemon.routing
        cold = get_estimator("kruithof").estimate(problems[3])
        np.testing.assert_array_equal(records[3].estimate, cold.vector)
        assert not any(record.degraded for record in records)

    def test_kruithof_after_reroute_returns_kruithofs_answer(
        self, stream_scenario, collector_factory
    ):
        routing = stream_scenario.routing
        loads = routing.link_loads(stream_scenario.day_series[0].vector)
        busiest = routing.link_names[int(np.argmax(loads))]
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(collector_factory(), method="kruithof")
        problems = capture_problems(daemon)
        records = []
        for record in daemon.run(stream):
            records.append(record)
            if record.sequence == 2:  # before round 4
                assert daemon.apply_reroute(failed_links=[busiest]).rerouted
        after = [record for record in records if record.epoch == 1]
        assert len(after) == len(records) - 3
        for record in after:
            cold = get_estimator("kruithof").estimate(problems[record.sequence])
            np.testing.assert_array_equal(record.estimate, cold.vector)

    def test_unknown_element_changes_no_state(
        self, stream_scenario, collector_factory, tmp_path
    ):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(collector_factory(), method="tomogravity")
        iterator = daemon.run(stream)
        for _ in range(3):
            next(iterator)
        routing, estimate = daemon.routing, daemon.estimate.copy()
        failed = stream_scenario.routing.link_names[0]
        with pytest.raises(StreamingError, match="no-such-link"):
            daemon.apply_reroute(failed_links=["no-such-link"])
        with pytest.raises(StreamingError, match="no-such-node"):
            daemon.apply_reroute(failed_links=[failed], failed_nodes=["no-such-node"])
        assert daemon.failed_links == set() and daemon.failed_nodes == set()
        assert daemon.epoch == 0 and daemon.routing is routing
        np.testing.assert_array_equal(daemon.estimate, estimate)

        # The daemon still reroutes, checkpoints and restores.
        result = daemon.apply_reroute(failed_links=[failed])
        assert result.rerouted and daemon.epoch == 1
        assert daemon.failed_links == {failed}
        next(iterator)
        path = tmp_path / "after-bad-name.ckpt"
        daemon.checkpoint(str(path))
        restored = StreamingEstimator.restore(str(path), stream_scenario.routing)
        assert restored.failed_links == {failed}
        assert restored.routing.fingerprint() == daemon.routing.fingerprint()

    def test_reroute_keeps_non_igp_base_columns(self):
        """A CSPF base keeps its columns; only the pairs crossing the failure move."""
        from repro.routing import CSPFRouter, build_routing_matrix
        from repro.topology import Link, Network, Node, NodePair

        network = Network("cspf-diamond")
        for name in ("S", "X", "Y", "T", "U"):
            network.add_node(Node(name=name))
        for a, b in (("S", "X"), ("X", "T"), ("S", "Y"), ("Y", "T"), ("T", "U")):
            network.add_bidirectional_link(
                Link(source=a, target=b, capacity_mbps=100.0, metric=1.0)
            )
        bandwidths = {NodePair("S", "T"): 90.0, NodePair("S", "X"): 50.0}
        base = build_routing_matrix(
            network, paths=CSPFRouter(network).route_all(bandwidths=bandwidths)
        )
        s_to_x = base.pair_column(NodePair("S", "X"))
        # S->T fills S->X, so S->X detours around it (IGP would go direct).
        assert {base.link_names[row] for row in np.flatnonzero(s_to_x)} == {
            "S->Y",
            "Y->T",
            "T->X",
        }

        daemon = StreamingEstimator(routing=base)
        result = daemon.apply_reroute(failed_links=["T->U"])
        after = daemon.routing
        np.testing.assert_array_equal(after.pair_column(NodePair("S", "X")), s_to_x)
        changed = [
            pair
            for pair in base.pairs
            if not np.array_equal(after.pair_column(pair), base.pair_column(pair))
        ]
        assert list(result.rerouted) == changed
        assert changed and all(pair.destination == "U" for pair in changed)
        kept = np.setdiff1d(
            np.arange(base.num_pairs), [base.pair_index(pair) for pair in changed]
        )
        assert (after.native[:, kept] != base.native[:, kept]).nnz == 0

    def test_reroute_without_network_rejected(self, stream_scenario, collector_factory):
        from repro.routing.routing_matrix import RoutingMatrix

        routing = stream_scenario.routing
        bare = RoutingMatrix(routing.native, routing.link_names, routing.pairs)
        daemon = StreamingEstimator(routing=bare)
        with pytest.raises(StreamingError):
            daemon.apply_reroute(failed_links=[routing.link_names[0]])


class TestValidationAndTelemetry:
    def test_constructor_validation(self, stream_scenario):
        routing = stream_scenario.routing
        with pytest.raises(StreamingError):
            StreamingEstimator(routing=routing, min_valid_fraction=1.5)

    def test_empty_fallbacks_rejected(self, stream_scenario):
        with pytest.raises(StreamingError, match="fallbacks"):
            StreamingEstimator(routing=stream_scenario.routing, fallbacks=())

    def test_out_of_order_rounds_rejected(self, stream_scenario, collector_factory):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(collector_factory())
        daemon.process_round(stream.round(0), stream)
        with pytest.raises(StreamingError):
            daemon.process_round(stream.round(2), stream)

    def test_stream_missing_objects_rejected(self, stream_scenario, collector_factory):
        collector = collector_factory()
        matrices = collector.poll_edge_matrices(stream_scenario.day_series)
        stream = PollStream(matrices[:1])  # half the objects
        daemon = StreamingEstimator.from_collector(collector_factory())
        with pytest.raises(StreamingError):
            daemon.process_round(stream.round(0), stream)

    def test_stream_in_poller_order_rejected(self, stream_scenario, collector_factory):
        # Every counter is there, but the columns follow the pollers'
        # round-robin split instead of the counter order the daemon reads.
        stream = PollStream(collector_factory().poll_edge_matrices(stream_scenario.day_series))
        assert sorted(stream.object_names) == sorted(edge_counter_names(stream_scenario.routing))
        daemon = StreamingEstimator.from_collector(collector_factory())
        with pytest.raises(StreamingError, match="counter order"):
            daemon.process_round(stream.round(0), stream)
        assert daemon.rounds_seen == 0

    def test_stream_checked_once_per_stream(self, stream_scenario, collector_factory, monkeypatch):
        from repro.streaming import daemon as daemon_module

        calls = []
        original = daemon_module.edge_counter_names

        def counting(routing):
            calls.append(routing)
            return original(routing)

        monkeypatch.setattr(daemon_module, "edge_counter_names", counting)
        daemon = StreamingEstimator.from_collector(collector_factory())
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        for poll_round in list(stream.rounds())[:4]:
            daemon.process_round(poll_round, stream)
        assert len(calls) == 1
        other = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon.process_round(other.round(4), other)
        assert len(calls) == 2

    def test_stream_stage_telemetry(self, telemetry_on, stream_scenario, collector_factory):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(collector_factory(), method="tomogravity")
        list(daemon.run(stream))
        snapshot = telemetry.metrics_snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        assert counters["stream.polls"] == len(stream_scenario.day_series)
        assert counters["stream.watchdog_checks"] == len(stream_scenario.day_series)
        assert "stream.watchdog_resolves" not in counters
        assert gauges["stream.valid_fraction"] == 1.0
