"""Tests for the poll-round stream and the causal rate tracker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StreamingError
from repro.measurement.collector import counter_names
from repro.measurement.snmp import CounterWidths, PollMatrix, SNMPPoller, rates_from_poll_matrix
from repro.resilience.faults import (
    ClockSkew,
    CollectorOutage,
    Counter32Wrap,
    CounterReset,
    PollLossBurst,
    fault_plan,
)
from repro.streaming import CounterTracker, PollStream


def _drive_tracker(polls: PollMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Feed every round of one poll matrix through a fresh tracker.

    Returns the stacked per-interval rates and freshness masks (the first
    round only primes the tracker, so there are ``rounds - 1`` rows).
    """
    tracker = CounterTracker(polls.num_objects)
    widths = CounterWidths(np.full(polls.num_objects, polls.counter_bits, dtype=np.uint64))
    rates, fresh = [], []
    for index in range(polls.num_rounds):
        row_rates, row_fresh = tracker.observe(
            polls.response_times[index], polls.counters[index], polls.lost[index], widths
        )
        if index > 0:
            rates.append(row_rates)
            fresh.append(row_fresh)
    return np.stack(rates), np.stack(fresh)


def _poll_matrix(counters, lost=None, times=None, bits=64, names=("o",)):
    counters = np.asarray(counters, dtype=np.uint64)
    rounds = counters.shape[0]
    if counters.ndim == 1:
        counters = counters[:, None]
    if times is None:
        times = 300.0 * np.arange(rounds, dtype=float)
    times = np.asarray(times, dtype=float)
    response = times[:, None] * np.ones((1, counters.shape[1]))
    lost_matrix = np.zeros(counters.shape, dtype=bool)
    if lost is not None:
        lost_matrix[...] = np.asarray(lost, dtype=bool).reshape(counters.shape)
    if len(names) != counters.shape[1]:
        names = tuple(f"o{i}" for i in range(counters.shape[1]))
    return PollMatrix(
        object_names=tuple(names),
        scheduled_times=times,
        response_times=response,
        counters=counters,
        lost=lost_matrix,
        counter_bits=bits,
    )


class TestCounterTrackerAgainstBatch:
    def test_clean_schedule_matches_batch_rates_exactly(self):
        poller = SNMPPoller(
            [f"obj{i}" for i in range(7)],
            jitter_std_seconds=1.5,
            loss_probability=0.0,
            seed=11,
        )
        rng = np.random.default_rng(0)
        matrix = poller.run_schedule_matrix(rng.uniform(10.0, 500.0, size=(12, 7)))
        batch_rates, diagnostics = rates_from_poll_matrix(matrix)

        stream_rates, fresh = _drive_tracker(matrix)
        assert fresh.all()
        np.testing.assert_array_equal(stream_rates, batch_rates)
        assert diagnostics.validity is not None and diagnostics.validity.all()

    def test_lossy_schedule_matches_batch_where_valid(self):
        poller = SNMPPoller(
            [f"obj{i}" for i in range(5)],
            jitter_std_seconds=1.0,
            loss_probability=0.2,
            seed=7,
        )
        rng = np.random.default_rng(1)
        matrix = poller.run_schedule_matrix(rng.uniform(10.0, 500.0, size=(20, 5)))
        batch_rates, diagnostics = rates_from_poll_matrix(matrix)

        stream_rates, fresh = _drive_tracker(matrix)
        # Causal freshness implies batch validity, but not vice versa: the
        # first good poll after a gap closes a *multi-interval* delta that
        # the batch path splits into interpolated samples.
        valid = diagnostics.validity
        assert valid is not None
        np.testing.assert_allclose(
            stream_rates[valid & fresh], batch_rates[valid & fresh]
        )

    def test_gap_average_after_loss_burst(self):
        # Rates 100 then 300 Mbps over 300 s intervals with the middle poll
        # lost: the catch-up sample averages the two intervals.
        bytes_per_interval = np.array([0.0, 100.0, 300.0]) * 1e6 / 8.0 * 300.0
        counters = np.cumsum(bytes_per_interval).astype(np.uint64)
        matrix = _poll_matrix(counters, lost=[[False], [True], [False]])
        tracker = CounterTracker(1)
        widths = CounterWidths(np.array([64], dtype=np.uint64))
        for index in range(3):
            rates, fresh = tracker.observe(
                matrix.response_times[index],
                matrix.counters[index],
                matrix.lost[index],
                widths,
            )
        assert fresh[0]
        assert rates[0] == pytest.approx(200.0)

    def test_held_rate_and_staleness_during_loss(self):
        bytes_100 = int(100.0 * 1e6 / 8.0 * 300.0)
        counters = np.array([0, bytes_100, 2 * bytes_100, 3 * bytes_100], dtype=np.uint64)
        matrix = _poll_matrix(counters, lost=[[False], [False], [True], [True]])
        tracker = CounterTracker(1)
        widths = CounterWidths(np.array([64], dtype=np.uint64))
        observed = []
        for index in range(4):
            observed.append(
                tracker.observe(
                    matrix.response_times[index],
                    matrix.counters[index],
                    matrix.lost[index],
                    widths,
                )
            )
        # Interval 1 derived normally; intervals 2 and 3 hold it.
        assert observed[1][0][0] == pytest.approx(100.0)
        assert observed[2][0][0] == pytest.approx(100.0) and not observed[2][1][0]
        assert observed[3][0][0] == pytest.approx(100.0) and not observed[3][1][0]
        assert tracker.lost_samples == 2


class TestCounterTrackerClassification:
    def test_counter32_wrap_recovered(self):
        # 50 Mbps for 300 s = 1.875e9 bytes per interval: the third poll
        # wraps the 32-bit counter with a delta below half the space, so
        # the wrap is recoverable (beyond half it would read as a reset).
        per_interval = int(50.0 * 1e6 / 8.0 * 300.0)
        raw = np.cumsum([0, per_interval, per_interval, per_interval]).astype(np.uint64)
        counters = raw % np.uint64(2**32)
        assert counters[3] < counters[2]  # the wrap actually happened
        matrix = _poll_matrix(counters, bits=32)
        stream_rates, fresh = _drive_tracker(matrix)
        assert fresh.all()
        np.testing.assert_allclose(stream_rates[:, 0], 50.0)
        batch_rates, _ = rates_from_poll_matrix(matrix)
        np.testing.assert_array_equal(stream_rates, batch_rates)

    def test_reset_invalidates_one_interval_then_recovers(self):
        per_interval = int(100.0 * 1e6 / 8.0 * 300.0)
        counters = np.array(
            [10 * per_interval, 11 * per_interval, 0, per_interval], dtype=np.uint64
        )
        matrix = _poll_matrix(counters)
        stream_rates, fresh = _drive_tracker(matrix)
        assert fresh[0, 0] and not fresh[1, 0] and fresh[2, 0]
        # The reset interval holds the last rate; the next one re-syncs.
        np.testing.assert_allclose(stream_rates[:, 0], [100.0, 100.0, 100.0])
        tracker_matches, _ = rates_from_poll_matrix(matrix)
        np.testing.assert_allclose(tracker_matches[:, 0], [100.0, 100.0, 100.0])

    def test_degenerate_elapsed_holds(self):
        per_interval = int(100.0 * 1e6 / 8.0 * 300.0)
        counters = np.array([0, per_interval, 2 * per_interval], dtype=np.uint64)
        matrix = _poll_matrix(counters, times=[0.0, 300.0, 300.0])
        stream_rates, fresh = _drive_tracker(matrix)
        assert fresh[0, 0] and not fresh[1, 0]
        assert stream_rates[1, 0] == pytest.approx(100.0)

    def test_counter_widths_classified_per_object(self):
        # The same readings wrap a 32-bit counter but step a 64-bit one back
        # by more than half its space: a reset.
        per_interval = int(1e6 / 8.0 * 300.0)  # 1 Mbps for 300 s
        start = np.full(2, 2**32 - 10, dtype=np.uint64)
        widths = CounterWidths(np.array([32, 64], dtype=np.uint64))
        lost = np.zeros(2, dtype=bool)
        tracker = CounterTracker(2)
        tracker.observe(np.zeros(2), start, lost, widths)
        rates, fresh = tracker.observe(
            np.full(2, 300.0), np.full(2, per_interval - 10, dtype=np.uint64), lost, widths
        )
        assert fresh.tolist() == [True, False]
        assert rates[0] == pytest.approx(1.0)
        assert tracker.wrap_samples == 1
        assert tracker.reset_samples == 1

    def test_shape_validation(self):
        tracker = CounterTracker(3)
        with pytest.raises(StreamingError):
            tracker.observe(
                np.zeros(2), np.zeros(3, dtype=np.uint64), np.zeros(3, dtype=bool),
                CounterWidths(np.full(3, 64, dtype=np.uint64)),
            )


class TestPollStream:
    def test_merges_collector_matrices(self, stream_scenario, collector_factory):
        collector = collector_factory()
        stream = PollStream.from_collector(collector, stream_scenario.day_series)
        routing = stream_scenario.routing
        assert stream.num_objects == routing.num_pairs + routing.num_links
        assert stream.num_rounds == len(stream_scenario.day_series) + 1
        first = stream.round(0)
        assert first.counters.shape == (stream.num_objects,)
        assert first.scheduled_time == 0.0

    def test_from_collector_lays_columns_out_in_counter_order(
        self, stream_scenario, collector_factory
    ):
        collector = collector_factory(num_pollers=3, jitter_std_seconds=1.0, loss_probability=0.2)
        stream = PollStream.from_collector(collector, stream_scenario.day_series)
        assert stream.object_names == counter_names(stream_scenario.routing)
        matrices = collector_factory(
            num_pollers=3, jitter_std_seconds=1.0, loss_probability=0.2
        ).poll_matrices(stream_scenario.day_series)
        assert any(matrix.lost.any() for matrix in matrices)
        column = {name: col for col, name in enumerate(stream.object_names)}
        for matrix in matrices:
            cols = [column[name] for name in matrix.object_names]
            np.testing.assert_array_equal(stream.response_times[:, cols], matrix.response_times)
            np.testing.assert_array_equal(stream.counters[:, cols], matrix.counters)
            np.testing.assert_array_equal(stream.lost[:, cols], matrix.lost)
            assert np.all(stream.object_bits[cols] == matrix.counter_bits)

    @pytest.mark.parametrize("num_pollers", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["counter32", "fault-plan"])
    def test_from_collector_is_the_generic_stream_in_counter_order(
        self, stream_scenario, collector_factory, num_pollers, variant
    ):
        options = dict(num_pollers=num_pollers, jitter_std_seconds=1.0, loss_probability=0.2)
        if variant == "counter32":
            options["counter_bits"] = 32
        else:
            options["fault_plan"] = fault_plan(
                PollLossBurst(start_round=2, num_rounds=2, fraction=0.5),
                CollectorOutage(poller_index=0, start_round=5, num_rounds=3),
                Counter32Wrap(),
                ClockSkew(offset_seconds=8.0, start_round=6),
                CounterReset(round_index=9),
                seed=7,
            )
        series = stream_scenario.day_series
        stream = PollStream.from_collector(collector_factory(**options), series)
        generic = PollStream(collector_factory(**options).poll_matrices(series))
        names = counter_names(stream_scenario.routing)
        column = {name: col for col, name in enumerate(generic.object_names)}
        order = [column[name] for name in names]
        assert stream.object_names == names
        # One poller's matrix is already in counter order; more interleave it.
        assert (generic.object_names == names) == (num_pollers == 1)
        for attribute in ("response_times", "counters", "lost"):
            drawn, expected = getattr(stream, attribute), getattr(generic, attribute)[:, order]
            assert drawn.dtype == expected.dtype
            np.testing.assert_array_equal(drawn, expected)
        np.testing.assert_array_equal(stream.object_bits, generic.object_bits[order])
        np.testing.assert_array_equal(stream.widths.bits, generic.widths.bits[order])
        np.testing.assert_array_equal(stream.scheduled_times, generic.scheduled_times)
        assert stream.lost.any()
        assert (stream.object_bits == 32).all()

    def test_from_collector_checks_each_pollers_slice(self, stream_scenario, collector_factory):
        collector = collector_factory(num_pollers=2)
        collector.assignments.reverse()
        with pytest.raises(StreamingError, match="slice"):
            PollStream.from_collector(collector, stream_scenario.day_series)

    def test_rounds_are_read_only_row_views(self, stream_scenario, collector_factory):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        poll_round = stream.round(3)
        for row, array in (
            (poll_round.response_times, stream.response_times),
            (poll_round.counters, stream.counters),
            (poll_round.lost, stream.lost),
        ):
            assert row.base is array
            np.testing.assert_array_equal(row, array[3])
            assert not row.flags.writeable and not array.flags.writeable
        assert not stream.object_bits.flags.writeable

    def test_mixed_counter_bits_tracked_per_object(self):
        a = _poll_matrix(np.array([0, 10], dtype=np.uint64), names=("a",), bits=64)
        b = _poll_matrix(np.array([0, 10], dtype=np.uint64), names=("b",), bits=32)
        stream = PollStream([a, b])
        np.testing.assert_array_equal(stream.object_bits, [64, 32])

    def test_mismatched_schedules_rejected(self):
        a = _poll_matrix(np.array([0, 10], dtype=np.uint64), names=("a",))
        b = _poll_matrix(
            np.array([0, 10], dtype=np.uint64), names=("b",), times=[0.0, 600.0]
        )
        with pytest.raises(StreamingError):
            PollStream([a, b])

    def test_duplicate_names_rejected(self):
        a = _poll_matrix(np.array([0, 10], dtype=np.uint64), names=("a",))
        with pytest.raises(StreamingError):
            PollStream([a, a])

    def test_round_bounds_checked(self):
        a = _poll_matrix(np.array([0, 10], dtype=np.uint64), names=("a",))
        stream = PollStream([a])
        with pytest.raises(StreamingError):
            stream.round(2)

    def test_empty_stream_rejected(self):
        with pytest.raises(StreamingError):
            PollStream([])
