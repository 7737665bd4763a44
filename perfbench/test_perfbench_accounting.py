"""Tests of the benchmark's own rules: op failure classification, tail percentiles, host clock."""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import calibrate
from accounting import Tally, failure_reason, min_samples_for, tail_percentile


def _result(vector=(1.0, 2.0, 3.0), **diagnostics):
    return SimpleNamespace(vector=np.asarray(vector, dtype=float), diagnostics=diagnostics)


def _record(**overrides):
    fields = dict(estimate=np.ones(3), converged=True, degraded=False, stale=False)
    fields.update(overrides)
    return SimpleNamespace(**fields)


def test_planted_non_converged_result_counts_as_failed():
    tally = Tally()
    tally.add("bayesian", failure_reason(_result(converged=False, iterations=5000)))
    tally.add("gravity", failure_reason(_result()))
    tally.add("tomogravity", failure_reason(_result(converged=True)))
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.reasons == {"bayesian: not converged": 1}


def test_numpy_false_converged_flag_fails():
    assert failure_reason(_result(converged=np.bool_(False))) == "not converged"


@pytest.mark.parametrize(
    "vector, reason",
    [((1.0, np.nan), "non-finite estimate"), ((1.0, np.inf), "non-finite estimate"),
     ((1.0, -1e-9), "negative estimate"), ((0.0, 1.0), None)],
)
def test_estimate_values(vector, reason):
    assert failure_reason(_result(vector)) == reason


def test_raised_and_skipped_ops():
    assert failure_reason(error=RuntimeError("boom")) == "raised RuntimeError"
    assert failure_reason(skipped=True) == "skipped"


@pytest.mark.parametrize(
    "overrides, reason",
    [({}, None), ({"degraded": True}, "degraded"), ({"stale": True}, "stale"),
     ({"converged": False}, "not converged"), ({"converged": None}, None)],
)
def test_stream_records(overrides, reason):
    assert failure_reason(record=_record(**overrides)) == reason


def test_failed_check_is_counted_without_a_new_attempt():
    tally = Tally()
    tally.add("kruithof", None)
    tally.fail("check", "restored record differs")
    assert (tally.attempted, tally.failed) == (1, 1)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert min_samples_for(95) == 200
    assert min_samples_for(99) == 1000
    assert min_samples_for(50) == 20
    with pytest.raises(ValueError, match="needs 200 samples"):
        tail_percentile(range(199), 95)
    samples = np.arange(200.0)
    p95 = tail_percentile(samples, 95)
    assert (samples > p95).sum() >= 10


def test_host_clock_weights_kernel_samples_by_stretch_length(monkeypatch):
    kernels = iter([0.09, 0.09, 0.03])
    clock_times = iter([0.0, 1.0, 1.0, 4.0, 4.0])
    monkeypatch.setattr(calibrate, "kernel_seconds", lambda: next(kernels))
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: next(clock_times))
    clock = calibrate.HostClock()
    clock.sample()  # 1 s at a mean kernel time of 0.09 s
    clock.sample()  # 3 s at a mean kernel time of 0.06 s
    assert clock.samples == [0.09, 0.09, 0.03]
    assert clock.scale() == pytest.approx(calibrate.REFERENCE_SECONDS / 0.0675)


def test_instance_seeds_start_at_the_seed_and_never_overlap_neighbours():
    from workloads import instance_seeds

    assert instance_seeds(2004, 1) == [2004]
    seeds = instance_seeds(2004, 4)
    assert seeds[0] == 2004 and seeds == instance_seeds(2004, 4)
    assert not set(seeds) & set(instance_seeds(2005, 4))
    assert all(0 <= seed < 2**31 for seed in seeds)


def test_benchmark_json_lists_every_metric():
    from layers import PER_LAYER
    from run import END_TO_END_UNITS

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(metric) for metric in PER_LAYER
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])
