"""Tests for the SNMP poller, poll matrices and rate derivation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.datasets import small_scenario
from repro.errors import MeasurementError
from repro.measurement import (
    DistributedCollector,
    PollMatrix,
    SNMPPoller,
    counter_names,
    rates_from_poll_matrix,
)
from repro.measurement.snmp import CounterWidths, classify_counter_deltas

#: Bytes one 300 s interval carries at 1 Mbit/s.
MBPS_INTERVAL_BYTES = 300 * 125_000


def _poll_matrix(counters, lost=None, response_times=None, counter_bits=64):
    """A hand-built one-object poll matrix on a 300 s schedule."""
    counters = np.asarray(counters, dtype=np.uint64).reshape(-1, 1)
    scheduled = 300.0 * np.arange(counters.shape[0])
    response = scheduled if response_times is None else response_times
    return PollMatrix(
        object_names=("x",),
        scheduled_times=scheduled,
        response_times=np.asarray(response, dtype=float).reshape(-1, 1),
        counters=counters,
        lost=np.zeros(counters.shape, dtype=bool)
        if lost is None
        else np.asarray(lost, dtype=bool).reshape(-1, 1),
        counter_bits=counter_bits,
    )


def _reference_rates(polls: PollMatrix) -> np.ndarray:
    """The per-sample loop, kept as the agreement oracle."""
    num_intervals = polls.num_rounds - 1
    space = 2**polls.counter_bits
    rates = np.full((num_intervals, polls.num_objects), np.nan)
    for col in range(polls.num_objects):
        for k in range(num_intervals):
            if polls.lost[k, col] or polls.lost[k + 1, col]:
                continue
            elapsed = polls.response_times[k + 1, col] - polls.response_times[k, col]
            if elapsed <= 0:
                continue
            delta = (int(polls.counters[k + 1, col]) - int(polls.counters[k, col])) % space
            rates[k, col] = delta * (8.0 / 1e6) / elapsed
        column = rates[:, col]
        valid = ~np.isnan(column)
        if not valid.all():
            indices = np.arange(num_intervals)
            column[~valid] = np.interp(indices[~valid], indices[valid], column[valid])
    return rates


class TestPoller:
    def test_validation(self):
        with pytest.raises(MeasurementError):
            SNMPPoller([])
        with pytest.raises(MeasurementError):
            SNMPPoller(["a", "a"])
        with pytest.raises(MeasurementError):
            SNMPPoller(["a"], interval_seconds=0)
        with pytest.raises(MeasurementError):
            SNMPPoller(["a"], loss_probability=1.0)
        with pytest.raises(MeasurementError):
            SNMPPoller(["a"], jitter_std_seconds=-1.0)

    def test_poll_returns_one_result_per_object(self):
        polls = SNMPPoller(["a", "b"], seed=1).run_schedule_matrix(np.zeros((0, 2)))
        assert polls.num_rounds == 1
        assert polls.object_names == ("a", "b")
        assert not polls.lost.any()

    def test_unknown_counter_rejected(self):
        poller = SNMPPoller(["a"], seed=1)
        with pytest.raises(MeasurementError, match="expected"):
            poller.run_schedule_matrix(np.ones((2, 2)))

    def test_loss_probability_produces_lost_polls(self):
        poller = SNMPPoller([f"o{i}" for i in range(200)], loss_probability=0.3, seed=2)
        lost = int(poller.run_schedule_matrix(np.zeros((0, 200))).lost.sum())
        assert 20 < lost < 120

    def test_run_schedule_produces_rounds(self):
        poller = SNMPPoller(["a"], interval_seconds=300.0, jitter_std_seconds=0.0, seed=3)
        polls = poller.run_schedule_matrix(np.array([[100.0], [200.0]]), start_time=0.0)
        assert polls.num_rounds == 3
        np.testing.assert_array_equal(polls.scheduled_times, [0.0, 300.0, 600.0])

    def test_zero_noise_schedule_equals_the_per_round_draws(self):
        # Without jitter or loss the schedule skips the generator; over two
        # calls its polls must equal a same-seed twin's per-round draws.
        names = [f"o{i}" for i in range(5)]
        poller = SNMPPoller(names, jitter_std_seconds=0.0, seed=7)
        twin = SNMPPoller(names, jitter_std_seconds=0.0, seed=7)
        rates = np.random.default_rng(0).uniform(10.0, 500.0, size=(7, 5))
        start = 0.0
        for block in (rates[:4], rates[4:]):
            polls = poller.run_schedule_matrix(block, start_time=start)
            draws = [twin._poll_arrays(float(t)) for t in polls.scheduled_times]
            np.testing.assert_array_equal(polls.response_times, [r for r, _ in draws])
            np.testing.assert_array_equal(polls.lost, [lost for _, lost in draws])
            start = float(polls.scheduled_times[-1])

    def test_counter_width_must_be_32_or_64(self):
        for bits in (16, 63, 128):
            with pytest.raises(MeasurementError, match="32 or 64"):
                SNMPPoller(["a"], counter_bits=bits)
        assert SNMPPoller(["a"], counter_bits=32).counter_bits == 32

    def test_counters_accumulate_bytes(self):
        poller = SNMPPoller(["a"], interval_seconds=1.0, jitter_std_seconds=0.0, seed=1)
        polls = poller.run_schedule_matrix(np.array([[8.0], [8.0]]))  # 1 MB a second
        assert polls.counters[:, 0].tolist() == [0, 1_000_000, 2_000_000]

    def test_counters_carry_over_between_schedules(self):
        poller = SNMPPoller(["a", "b"], interval_seconds=1.0, jitter_std_seconds=0.0, seed=1)
        first = poller.run_schedule_matrix(np.array([[8.0, 16.0]]))
        second = poller.run_schedule_matrix(np.array([[8.0, 0.0]]), start_time=1.0)
        np.testing.assert_array_equal(second.counters[0], first.counters[-1])
        assert second.counters[-1].tolist() == [2_000_000, 2_000_000]

    def test_counters_wrap_past_the_64_bit_space(self):
        # Four intervals of ~0.3 * 2**64 bytes carry the counter round its
        # space once; each delta stays below half of it, so it reads as a wrap.
        rate = 0.3 * 2.0**64 / MBPS_INTERVAL_BYTES
        poller = SNMPPoller(["a"], jitter_std_seconds=0.0, seed=1)
        polls = poller.run_schedule_matrix(np.full((4, 1), rate))
        assert polls.counters[4, 0] < polls.counters[3, 0]
        rates, diagnostics = rates_from_poll_matrix(polls)
        np.testing.assert_allclose(rates[:, 0], rate, rtol=1e-12)
        assert diagnostics.wrap_samples == 1
        assert diagnostics.reset_samples == 0


class TestRatesFromPolls:
    def run_pipeline(self, rates, loss=0.0, jitter=0.0, seed=0):
        poller = SNMPPoller(
            ["x"], interval_seconds=300.0, jitter_std_seconds=jitter, loss_probability=loss, seed=seed
        )
        polls = poller.run_schedule_matrix(np.array(rates)[:, None], start_time=0.0)
        return rates_from_poll_matrix(polls)[0]

    def test_exact_recovery_without_jitter(self):
        recovered = self.run_pipeline([100.0, 250.0, 50.0])
        assert recovered.shape == (3, 1)
        assert np.allclose(recovered[:, 0], [100.0, 250.0, 50.0], rtol=1e-6)

    def test_jitter_adjustment_keeps_rates_close(self):
        recovered = self.run_pipeline([100.0] * 10, jitter=3.0, seed=5)
        assert np.allclose(recovered[:, 0], 100.0, rtol=0.05)

    def test_lost_polls_are_interpolated(self):
        recovered = self.run_pipeline([100.0] * 20, loss=0.3, seed=7)
        assert recovered.shape == (20, 1)
        assert np.all(np.isfinite(recovered))
        assert np.allclose(recovered[:, 0], 100.0, rtol=0.2)

    def test_requires_two_rounds(self):
        polls = SNMPPoller(["x"], seed=1).run_schedule_matrix(np.zeros((0, 1)))
        with pytest.raises(MeasurementError, match="at least two poll rounds"):
            rates_from_poll_matrix(polls)

    def test_all_lost_rejected(self):
        with pytest.raises(MeasurementError, match="all polls lost"):
            rates_from_poll_matrix(_poll_matrix([0, 0], lost=[True, True]))


class TestVectorizedPoller:
    def test_counters_wrap_like_counter64(self):
        start = 2**64 - 10
        counters = [start, (start + 100 * MBPS_INTERVAL_BYTES) % 2**64]
        rates, diagnostics = rates_from_poll_matrix(_poll_matrix(counters))
        assert rates[0, 0] == pytest.approx(100.0, rel=1e-12)
        assert diagnostics.wrap_samples == 1
        assert diagnostics.reset_samples == 0

    def test_negative_rates_rejected(self):
        poller = SNMPPoller(["a"], seed=1)
        with pytest.raises(MeasurementError):
            poller.run_schedule_matrix(np.array([[-1.0]]))

    def test_vectorized_rates_agree_with_reference_loop(self):
        names = [f"o{i}" for i in range(7)]
        poller = SNMPPoller(
            names, jitter_std_seconds=3.0, loss_probability=0.2, seed=42
        )
        rng = np.random.default_rng(0)
        rate_matrix = rng.uniform(10.0, 500.0, size=(30, len(names)))
        polls = poller.run_schedule_matrix(rate_matrix, start_time=0.0)

        vectorized, _ = rates_from_poll_matrix(polls)
        np.testing.assert_array_equal(vectorized, _reference_rates(polls))


class TestRateDiagnostics:
    def test_clean_run_has_no_interpolation(self):
        poller = SNMPPoller(["a", "b"], jitter_std_seconds=0.0, seed=1)
        polls = poller.run_schedule_matrix(np.array([[10.0, 0.0]] * 5))
        _, diagnostics = rates_from_poll_matrix(polls)
        assert diagnostics.num_intervals == 5
        assert diagnostics.num_objects == 2
        assert diagnostics.total_samples == 10
        assert diagnostics.lost_samples == 0
        assert diagnostics.degenerate_samples == 0
        assert diagnostics.interpolated_samples == 0
        assert diagnostics.interpolated_fraction == 0.0

    def test_lost_polls_are_counted(self):
        polls = _poll_matrix(
            [0, 0, 2 * MBPS_INTERVAL_BYTES, 3 * MBPS_INTERVAL_BYTES],
            lost=[False, True, False, False],
        )
        rates, diagnostics = rates_from_poll_matrix(polls)
        # The lost middle poll invalidates the two adjacent intervals.
        assert diagnostics.lost_samples == 2
        assert diagnostics.degenerate_samples == 0
        assert diagnostics.interpolated_samples == 2
        # The only valid interval carries 125 kB/s = 1 Mbit/s; the two
        # invalidated intervals are filled by constant extrapolation.
        assert np.allclose(rates[:, 0], 1.0)

    def test_degenerate_intervals_counted_separately_from_loss(self):
        # Second response arrives *before* the first (elapsed <= 0): both
        # polls answered, so this is degenerate, not UDP loss.
        polls = _poll_matrix([0, 1000, 2000], response_times=[10.0, 5.0, 605.0])
        rates, diagnostics = rates_from_poll_matrix(polls)
        assert diagnostics.degenerate_samples == 1
        assert diagnostics.lost_samples == 0
        assert diagnostics.interpolated_samples == 1
        assert np.all(np.isfinite(rates))

    def test_resets_counted_and_interpolated(self):
        counters = [10 * MBPS_INTERVAL_BYTES, 20 * MBPS_INTERVAL_BYTES, 0, 10 * MBPS_INTERVAL_BYTES]
        rates, diagnostics = rates_from_poll_matrix(_poll_matrix(counters))
        assert diagnostics.reset_samples == 1
        assert diagnostics.wrap_samples == 0
        assert diagnostics.interpolated_samples == 1
        np.testing.assert_allclose(rates[:, 0], 10.0)

    def test_excessive_interpolation_raises(self):
        polls = _poll_matrix([0, 0, 2000, 3000], lost=[False, True, False, False])
        with pytest.raises(MeasurementError, match="interpolated"):
            rates_from_poll_matrix(polls, max_interpolated_fraction=0.5)
        # The same data passes with a permissive threshold.
        rates_from_poll_matrix(polls, max_interpolated_fraction=0.7)

    def test_interpolation_guard_must_be_a_fraction(self):
        polls = _poll_matrix([0, 1000, 2000])
        for fraction in (-0.1, 1.5):
            with pytest.raises(MeasurementError, match="max_interpolated_fraction"):
                rates_from_poll_matrix(polls, max_interpolated_fraction=fraction)

    def test_merged_accumulates_counts(self):
        poller = SNMPPoller(["a"], jitter_std_seconds=0.0, seed=1)
        _, first = rates_from_poll_matrix(poller.run_schedule_matrix(np.full((4, 1), 10.0)))
        merged = first.merged(first)
        assert merged.num_objects == 2
        assert merged.total_samples == 8


class TestPollMatrix:
    def test_shape_validation(self):
        with pytest.raises(MeasurementError):
            PollMatrix(
                object_names=("a",),
                scheduled_times=np.zeros(2),
                response_times=np.zeros((3, 1)),
                counters=np.zeros((2, 1), dtype=np.uint64),
                lost=np.zeros((2, 1), dtype=bool),
            )

    def test_counter_width_range_validated(self):
        for bits in (0, 65):
            with pytest.raises(MeasurementError, match="counter_bits"):
                _poll_matrix([0, 10], counter_bits=bits)

    def test_signed_counters_rejected(self):
        # int64 arithmetic would read a reboot from 1000 to 500 bytes as a
        # wrap and return a negative rate.
        matrix = _poll_matrix([1000, 500])
        with pytest.raises(MeasurementError, match="uint64"):
            dataclasses.replace(matrix, counters=matrix.counters.astype(np.int64))

    def test_integer_loss_mask_rejected(self):
        # ``~`` of a 0/1 integer mask is a bitwise NOT, not a logical one.
        matrix = _poll_matrix([0, 1000, 2000])
        with pytest.raises(MeasurementError, match="bool"):
            dataclasses.replace(matrix, lost=np.array([[0], [1], [0]]))

    def test_reading_beyond_the_counter_space_rejected(self):
        with pytest.raises(MeasurementError, match="32-bit"):
            _poll_matrix([2**32 - 5, 2**32 + 5], counter_bits=32)
        _poll_matrix([2**32 - 5, 4], counter_bits=32)  # the wrapped reading is fine


def _classify(previous, current, elapsed=300.0, usable=True, counter_bits=64):
    """Classify one row of samples with :func:`classify_counter_deltas`."""
    previous = np.asarray(previous, dtype=np.uint64)
    shape = previous.shape
    return classify_counter_deltas(
        previous,
        np.asarray(current, dtype=np.uint64),
        np.broadcast_to(np.asarray(elapsed, dtype=float), shape).copy(),
        np.broadcast_to(np.asarray(usable, dtype=bool), shape).copy(),
        CounterWidths(counter_bits),
    )


class TestClassifyCounterDeltas:
    def test_forward_delta_is_a_valid_rate(self):
        rates, valid, degenerate, reset, wrapped = _classify([0], [MBPS_INTERVAL_BYTES])
        np.testing.assert_array_equal(rates, [1.0])
        assert valid.all()
        assert not (degenerate.any() or reset.any() or wrapped.any())

    def test_backward_step_below_half_the_space_is_a_wrap(self):
        rates, valid, _, reset, wrapped = _classify([2**64 - 10], [MBPS_INTERVAL_BYTES - 10])
        np.testing.assert_array_equal(rates, [1.0])
        assert valid.all() and wrapped.all()
        assert not reset.any()

    def test_backward_step_beyond_half_the_space_is_a_reset(self):
        rates, valid, _, reset, wrapped = _classify([10 * MBPS_INTERVAL_BYTES], [0])
        assert np.isnan(rates).all()
        assert reset.all()
        assert not (valid.any() or wrapped.any())

    def test_no_elapsed_time_is_degenerate_before_any_step_is_read(self):
        # The second sample steps back like a reset, but without elapsed
        # time it is degenerate, and only that.
        rates, valid, degenerate, reset, wrapped = _classify(
            [0, 10 * MBPS_INTERVAL_BYTES], [MBPS_INTERVAL_BYTES, 0], elapsed=[0.0, -5.0]
        )
        assert np.isnan(rates).all()
        assert degenerate.all()
        assert not (valid.any() or reset.any() or wrapped.any())

    def test_unusable_samples_carry_no_class(self):
        rates, valid, degenerate, reset, wrapped = _classify(
            [0, 10 * MBPS_INTERVAL_BYTES, 2**64 - 10],
            [MBPS_INTERVAL_BYTES, 0, 5],
            elapsed=[0.0, 300.0, 300.0],
            usable=False,
        )
        assert np.isnan(rates).all()
        assert not (valid.any() or degenerate.any() or reset.any() or wrapped.any())

    def test_narrow_counter_reduces_deltas_modulo_its_space(self):
        rates, valid, _, reset, wrapped = _classify(
            [2**32 - 10, 10 * MBPS_INTERVAL_BYTES], [MBPS_INTERVAL_BYTES - 10, 0], counter_bits=32
        )
        # A 32-bit wrap of one interval's bytes, then a 32-bit reset.
        assert rates[0] == 1.0 and np.isnan(rates[1])
        assert valid.tolist() == [True, False]
        assert wrapped.tolist() == [True, False]
        assert reset.tolist() == [False, True]

    def test_per_object_widths_broadcast_along_the_last_axis(self):
        # The same readings wrap a 32-bit counter but step a 64-bit one
        # back by more than half its space.
        start = 2**32 - 10
        rates, valid, _, reset, wrapped = _classify(
            [[start, start]] * 2,
            [[MBPS_INTERVAL_BYTES - 10] * 2] * 2,
            counter_bits=np.array([32, 64], dtype=np.uint64),
        )
        np.testing.assert_array_equal(valid, [[True, False]] * 2)
        np.testing.assert_array_equal(wrapped, [[True, False]] * 2)
        np.testing.assert_array_equal(reset, [[False, True]] * 2)
        np.testing.assert_array_equal(rates[:, 0], [1.0, 1.0])


class TestValidityMask:
    def test_clean_polls_are_fully_valid(self):
        poller = SNMPPoller(("a", "b"), jitter_std_seconds=0.0, seed=0)
        polls = poller.run_schedule_matrix(np.full((6, 2), 10.0))
        _, diagnostics = rates_from_poll_matrix(polls)
        assert diagnostics.validity is not None
        assert diagnostics.validity.shape == (6, 2)
        assert diagnostics.validity.all()
        assert not diagnostics.validity.flags.writeable

    def test_lost_polls_marked_invalid(self):
        poller = SNMPPoller(("a", "b", "c"), jitter_std_seconds=0.0,
                            loss_probability=0.3, seed=3)
        polls = poller.run_schedule_matrix(np.full((20, 3), 10.0))
        _, diagnostics = rates_from_poll_matrix(polls)
        validity = diagnostics.validity
        assert validity is not None
        # Interpolated sample accounting and the mask must agree.
        assert int((~validity).sum()) == diagnostics.interpolated_samples
        # A lost poll invalidates both adjacent intervals.
        lost_rounds, lost_objects = np.nonzero(polls.lost)
        for round_index, object_index in zip(lost_rounds, lost_objects):
            if round_index < validity.shape[0]:
                assert not validity[round_index, object_index]
            if round_index > 0:
                assert not validity[round_index - 1, object_index]

    def test_merged_diagnostics_concatenate_masks(self):
        poller_a = SNMPPoller(("a",), jitter_std_seconds=0.0, loss_probability=0.5, seed=1)
        poller_b = SNMPPoller(("b",), jitter_std_seconds=0.0, loss_probability=0.0, seed=2)
        _, diag_a = rates_from_poll_matrix(poller_a.run_schedule_matrix(np.full((8, 1), 10.0)))
        _, diag_b = rates_from_poll_matrix(poller_b.run_schedule_matrix(np.full((8, 1), 10.0)))
        merged = diag_a.merged(diag_b)
        assert merged.validity is not None
        assert merged.validity.shape == (8, 2)
        np.testing.assert_array_equal(merged.validity[:, 0], diag_a.validity[:, 0])
        np.testing.assert_array_equal(merged.validity[:, 1], diag_b.validity[:, 0])

    def test_merged_without_mask_drops_it(self):
        poller = SNMPPoller(("a",), jitter_std_seconds=0.0, seed=1)
        _, diagnostics = rates_from_poll_matrix(poller.run_schedule_matrix(np.full((4, 1), 10.0)))
        stripped = dataclasses.replace(diagnostics, validity=None)
        assert diagnostics.merged(stripped).validity is None


class TestCollectAgainstReferenceLoop:
    def test_collected_columns_equal_the_per_sample_loop(self):
        scenario = small_scenario(seed=5, num_nodes=5, num_samples=12)

        def make_collector():
            return DistributedCollector(
                scenario.routing, num_pollers=3, jitter_std_seconds=2.0,
                loss_probability=0.1, seed=4,
            )

        collector = make_collector()
        collector.collect(scenario.day_series)
        measured = np.hstack(
            [collector.measured_traffic_series().as_array(), collector.measured_link_loads()]
        )
        column = {name: col for col, name in enumerate(counter_names(scenario.routing))}
        polls = make_collector().poll_matrices(scenario.day_series)
        assert sum(matrix.lost.sum() for matrix in polls) > 0
        for matrix in polls:
            columns = [column[name] for name in matrix.object_names]
            np.testing.assert_array_equal(measured[:, columns], _reference_rates(matrix))
