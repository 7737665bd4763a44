"""Seeded fault plans: deterministic corruption of poll matrices.

The contract under test: a :class:`~repro.resilience.FaultPlan` is a seed
plus an ordered event tuple, and applying the same plan to the same clean
archive always produces the same corrupted archive — the property that
makes chaos drills reproducible.  Each event class is checked against the
real failure mode it models (UDP bursts, reboots, Counter32 wraps, clock
drift, frozen line cards, dead pollers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.measurement.snmp import SNMPPoller, rates_from_poll_matrix
from repro.resilience import (
    ClockSkew,
    CollectorOutage,
    Counter32Wrap,
    CounterReset,
    FaultPlan,
    PollLossBurst,
    StuckCounter,
    WorkerFaultPlan,
    fault_plan,
)

OBJECTS = ("a", "b", "c")
RATES = np.full((8, len(OBJECTS)), 10.0)  # 10 Mbit/s sustained


def clean_polls(counter_bits: int = 64, jitter: float = 0.0):
    poller = SNMPPoller(
        OBJECTS,
        interval_seconds=300.0,
        jitter_std_seconds=jitter,
        seed=0,
        counter_bits=counter_bits,
    )
    return poller.run_schedule_matrix(RATES)


def test_same_seed_reproduces_identical_archive():
    plan = fault_plan(
        PollLossBurst(start_round=1, num_rounds=3, fraction=0.5),
        CounterReset(round_index=5),
        seed=42,
    )
    first = plan.apply_to_polls(clean_polls(), salt=7)
    second = plan.apply_to_polls(clean_polls(), salt=7)
    np.testing.assert_array_equal(first.lost, second.lost)
    np.testing.assert_array_equal(first.counters, second.counters)
    np.testing.assert_array_equal(first.response_times, second.response_times)


def test_different_seed_or_salt_changes_probabilistic_events():
    event = PollLossBurst(start_round=0, num_rounds=9, fraction=0.5)
    base = FaultPlan(seed=1, events=(event,)).apply_to_polls(clean_polls())
    reseeded = FaultPlan(seed=2, events=(event,)).apply_to_polls(clean_polls())
    resalted = FaultPlan(seed=1, events=(event,)).apply_to_polls(clean_polls(), salt=1)
    assert not np.array_equal(base.lost, reseeded.lost)
    assert not np.array_equal(base.lost, resalted.lost)


def test_plan_does_not_mutate_the_input_matrix():
    polls = clean_polls()
    lost_before = polls.lost.copy()
    fault_plan(PollLossBurst(start_round=0, num_rounds=9)).apply_to_polls(polls)
    np.testing.assert_array_equal(polls.lost, lost_before)


def test_poll_loss_burst_blacks_out_rounds():
    plan = fault_plan(PollLossBurst(start_round=2, num_rounds=3))
    polls = plan.apply_to_polls(clean_polls())
    assert polls.lost[2:5].all()
    assert not polls.lost[:2].any() and not polls.lost[5:].any()


def test_poll_loss_burst_scopes_to_named_objects():
    plan = fault_plan(
        PollLossBurst(start_round=0, num_rounds=9, objects=("b", "missing-name"))
    )
    polls = plan.apply_to_polls(clean_polls())
    assert polls.lost[:, 1].all()  # "b"
    assert not polls.lost[:, [0, 2]].any()  # "a", "c" untouched


def test_counter_reset_detected_and_interpolated():
    plan = fault_plan(CounterReset(round_index=4))
    polls = plan.apply_to_polls(clean_polls())
    assert (polls.counters[4] == 0).all()  # reboot-to-zero
    rates, diagnostics = rates_from_poll_matrix(polls)
    assert diagnostics.reset_samples == len(OBJECTS)
    assert diagnostics.wrap_samples == 0
    # The reset interval is interpolated from its valid neighbours (all 10).
    np.testing.assert_allclose(rates, 10.0, rtol=1e-6)


def test_counter32_wrap_recovers_true_rates():
    plan = fault_plan(Counter32Wrap())
    polls = plan.apply_to_polls(clean_polls())
    assert polls.counter_bits == 32
    clean_rates, _ = rates_from_poll_matrix(clean_polls())
    rates, diagnostics = rates_from_poll_matrix(polls)
    # 10 Mbit/s * 300 s = 3.75e8 bytes per interval < 2**31: every wrap is
    # unambiguous and the wrapped archive yields the exact clean rates.
    np.testing.assert_allclose(rates, clean_rates)
    assert diagnostics.reset_samples == 0


def test_counter32_wrap_downgrades_every_poller_of_a_collector():
    # A poll matrix has one counter width, so the fault reduces and tags
    # every column of every poller's matrix; collection then reads the
    # wraps instead of rejecting a counter past the 32-bit space.
    from repro.datasets import small_scenario
    from repro.measurement.collector import DistributedCollector

    scenario = small_scenario(seed=5, num_nodes=5, num_samples=10)

    def collector(plan):
        return DistributedCollector(
            scenario.routing, num_pollers=2, jitter_std_seconds=0.0, seed=4, fault_plan=plan
        )

    clean = collector(None).poll_matrices(scenario.day_series)
    wrapped = collector(fault_plan(Counter32Wrap())).poll_matrices(scenario.day_series)
    assert len(wrapped) == 2
    for faulty, reference in zip(wrapped, clean):
        assert faulty.counter_bits == 32
        np.testing.assert_array_equal(faulty.counters, reference.counters % np.uint64(2**32))
        assert (reference.counters >= 2**32).any()
    faulty_collector = collector(fault_plan(Counter32Wrap()))
    faulty_collector.collect(scenario.day_series)
    assert faulty_collector.collection_diagnostics().wrap_samples > 0


def test_clock_skew_shifts_responses_and_rates():
    plan = fault_plan(ClockSkew(offset_seconds=30.0, start_round=4, objects=("a",)))
    polls = plan.apply_to_polls(clean_polls())
    rates, _ = rates_from_poll_matrix(polls)
    # Interval 3 -> 4 of "a" spans 330 s of wall clock for 300 s of bytes.
    np.testing.assert_allclose(rates[3, 0], 10.0 * 300.0 / 330.0)
    # Later intervals are uniformly shifted, so their rates are clean again.
    np.testing.assert_allclose(rates[4:, 0], 10.0)
    np.testing.assert_allclose(rates[:, 1:], 10.0)


def test_stuck_counter_reads_silence_then_catchup_burst():
    plan = fault_plan(StuckCounter(start_round=3, num_rounds=3, objects=("c",)))
    polls = plan.apply_to_polls(clean_polls())
    rates, _ = rates_from_poll_matrix(polls)
    np.testing.assert_allclose(rates[3:5, 2], 0.0)  # frozen window
    np.testing.assert_allclose(rates[5, 2], 30.0)  # 3 intervals of catch-up
    np.testing.assert_allclose(rates[:3, 2], 10.0)


def test_collector_outage_resolves_per_poller():
    plan = fault_plan(
        CollectorOutage(poller_index=1, start_round=2, num_rounds=2),
        CounterReset(round_index=6),
    )
    affected = plan.for_poller(1)
    bystander = plan.for_poller(0)
    assert any(isinstance(e, PollLossBurst) for e in affected.events)
    assert not any(isinstance(e, (PollLossBurst, CollectorOutage)) for e in bystander.events)
    # Shared events survive for every poller.
    assert any(isinstance(e, CounterReset) for e in bystander.events)
    # Applied to a standalone matrix the outage is inert.
    polls = plan.apply_to_polls(clean_polls())
    assert not polls.lost.any()


def test_worker_fault_plan_fires_by_task_and_round():
    plan = WorkerFaultPlan(crash_tasks=(0,), hang_tasks=(2,), crash_rounds=2)
    assert plan.fires(0, 0) == "crash"
    assert plan.fires(0, 1) == "crash"
    assert plan.fires(0, 2) is None  # crash budget exhausted
    assert plan.fires(2, 0) == "hang"
    assert plan.fires(2, 1) is None  # default hang_rounds = 1
    assert plan.fires(1, 0) is None


def test_describe_names_the_events():
    plan = fault_plan(
        PollLossBurst(start_round=0, num_rounds=1),
        seed=9,
        worker=WorkerFaultPlan(crash_tasks=(0,)),
    )
    text = plan.describe()
    assert "PollLossBurst" in text and "worker faults" in text and "seed=9" in text


def test_events_compose_in_order():
    # Reset after a wrap downgrade: both effects must be visible.
    plan = fault_plan(Counter32Wrap(), CounterReset(round_index=5))
    polls = plan.apply_to_polls(clean_polls())
    assert polls.counter_bits == 32
    assert (polls.counters[5] == 0).all()
    rates, diagnostics = rates_from_poll_matrix(polls)
    assert diagnostics.reset_samples == len(OBJECTS)
    np.testing.assert_allclose(rates, 10.0, rtol=1e-6)


def test_empty_plan_is_identity():
    polls = clean_polls()
    assert FaultPlan(seed=3).apply_to_polls(polls) is polls
