"""Tests for the measured-data scenario mode (SNMP pipeline -> estimation).

The headline guarantee: with zero jitter and zero loss, the measured
pipeline reproduces the consistent pipeline — same link loads, same edge
totals, same per-method MREs (up to counter byte quantisation) — so noisy
runs differ from consistent runs *only* through the noise knobs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import MeasuredScenario, Scenario
from repro.errors import TrafficError
from repro.estimation.registry import available_estimators
from repro.evaluation.experiments import registry_specs, run_method_specs
from repro.measurement.linkloads import link_load_series
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSeries


@pytest.fixture(scope="module")
def noise_free(small_scenario_session) -> MeasuredScenario:
    return small_scenario_session.measured(
        jitter_std_seconds=0.0, loss_probability=0.0, seed=5
    )


class TestMeasuredScenarioConstruction:
    def test_factory_preserves_scenario_identity(self, small_scenario_session, noise_free):
        assert isinstance(noise_free, MeasuredScenario)
        assert isinstance(noise_free, Scenario)
        assert noise_free.name == small_scenario_session.name
        assert noise_free.routing is small_scenario_session.routing
        assert noise_free.day_series is small_scenario_session.day_series

    def test_truth_is_untouched(self, small_scenario_session, noise_free):
        assert np.allclose(
            noise_free.busy_series().as_array(),
            small_scenario_session.busy_series().as_array(),
        )
        assert np.allclose(
            noise_free.busy_mean_matrix().vector,
            small_scenario_session.busy_mean_matrix().vector,
        )

    def test_measured_day_series_aligns_with_truth(self, small_scenario_session, noise_free):
        measured = noise_free.measured_day_series()
        day = small_scenario_session.day_series
        assert len(measured) == len(day)
        assert np.allclose(measured.timestamps(), day.timestamps())
        assert np.allclose(measured.as_array(), day.as_array(), rtol=1e-5, atol=1e-3)

    def test_collection_runs_once_and_is_lazy(self, small_scenario_session):
        measured = small_scenario_session.measured(seed=1)
        assert measured._collector is None
        first = measured.collector
        assert measured.collector is first

    def test_noise_free_diagnostics_are_clean(self, noise_free):
        diagnostics = noise_free.collector.collection_diagnostics()
        assert diagnostics.interpolated_samples == 0
        assert diagnostics.num_intervals == len(noise_free.day_series)

    def test_measurement_is_deterministic_for_seed(self, small_scenario_session):
        first = small_scenario_session.measured(
            jitter_std_seconds=2.0, loss_probability=0.1, seed=7
        )
        second = small_scenario_session.measured(
            jitter_std_seconds=2.0, loss_probability=0.1, seed=7
        )
        assert np.allclose(
            first.measured_day_series().as_array(),
            second.measured_day_series().as_array(),
        )


class TestMeasuredProblems:
    def test_noise_free_series_problem_matches_consistent(
        self, small_scenario_session, noise_free
    ):
        consistent = small_scenario_session.series_problem(window_length=10)
        measured = noise_free.series_problem(window_length=10)
        assert np.allclose(
            measured.link_load_series, consistent.link_load_series, rtol=1e-5, atol=1e-3
        )
        assert np.allclose(
            measured.origin_totals_series,
            consistent.origin_totals_series,
            rtol=1e-5,
            atol=1e-3,
        )
        assert np.allclose(
            measured.destination_totals_series,
            consistent.destination_totals_series,
            rtol=1e-5,
            atol=1e-3,
        )
        # The totals carry no names: the measured series must be in the
        # routing's pair order for its columns to line up.
        assert noise_free.measured_busy_series().pairs == small_scenario_session.routing.pairs

    def test_series_in_another_pair_order_is_rejected(self, small_scenario_session):
        series = small_scenario_session.busy_series().window(0, 3)
        reordered = TrafficMatrixSeries(
            [
                TrafficMatrix(tuple(reversed(snap.pairs)), snap.vector[::-1])
                for snap in series
            ]
        )
        loads = link_load_series(small_scenario_session.routing, series)
        with pytest.raises(TrafficError, match="different pair orderings"):
            small_scenario_session._series_problem_from(reordered, loads)

    def test_noise_free_snapshot_problem_matches_consistent(
        self, small_scenario_session, noise_free
    ):
        consistent = small_scenario_session.snapshot_problem()
        measured = noise_free.snapshot_problem()
        assert np.allclose(measured.link_loads, consistent.link_loads, rtol=1e-5, atol=1e-3)
        for position, total in enumerate(consistent.origin_totals):
            assert measured.origin_totals[position] == pytest.approx(total, rel=1e-5)

    def test_explicit_matrix_falls_back_to_consistent(self, noise_free, small_truth):
        problem = noise_free.snapshot_problem(small_truth)
        assert np.allclose(
            problem.link_loads, noise_free.routing.link_loads(small_truth.vector)
        )

    def test_noise_perturbs_the_link_loads(self, small_scenario_session):
        noisy = small_scenario_session.measured(
            jitter_std_seconds=5.0, loss_probability=0.1, seed=3
        )
        consistent = small_scenario_session.series_problem(window_length=10)
        measured = noisy.series_problem(window_length=10)
        assert not np.allclose(
            measured.link_load_series, consistent.link_load_series, rtol=1e-9, atol=1e-9
        )
        assert np.all(np.isfinite(measured.link_load_series))
        assert noisy.collector.collection_diagnostics().interpolated_samples > 0

    def test_window_length_validation(self, noise_free):
        with pytest.raises(TrafficError):
            noise_free.series_problem(window_length=0)
        with pytest.raises(TrafficError):
            noise_free.series_problem(window_length=10_000)


class TestMeasuredRowsParity:
    def test_noise_free_rows_reproduce_consistent_mres(
        self, small_scenario_session, noise_free
    ):
        """End-to-end parity: every registered method scores identically."""
        methods = available_estimators()
        rows = registry_specs(methods, window=10)
        consistent = {
            record.method: record
            for record in run_method_specs(small_scenario_session, rows, skip_errors=True)
        }
        measured = {
            record.method: record
            for record in run_method_specs(noise_free, rows, skip_errors=True)
        }
        assert set(consistent) == set(measured) == set(methods)
        for name in methods:
            assert consistent[name].skipped == measured[name].skipped, name
            if consistent[name].skipped:
                continue
            assert measured[name].mre == pytest.approx(
                consistent[name].mre, rel=1e-4, abs=1e-6
            ), name

    def test_noisy_rows_still_run_every_method(self, small_scenario_session):
        noisy = small_scenario_session.measured(
            jitter_std_seconds=5.0, loss_probability=0.05, seed=2
        )
        records = run_method_specs(
            noisy, registry_specs(["gravity", "kruithof", "fanout"], window=10), skip_errors=True
        )
        assert all(not record.skipped for record in records)
        assert all(np.isfinite(record.mre) for record in records)
