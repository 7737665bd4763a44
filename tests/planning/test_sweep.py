"""Failure-sweep tests: record structure, partitions, serial == parallel,
agreement with from-scratch rebuilds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.evaluation import MethodSpec, estimate_method_specs
from repro.planning import (
    FailureCase,
    enumerate_failures,
    failure_sweep,
    full_rebuild_routing,
    planning_summary_table,
    project_load,
    utilisation_error_profile,
)

SPECS = (
    MethodSpec(label="gravity", estimator="gravity"),
    MethodSpec(
        label="tomogravity",
        estimator="entropy",
        params={"regularization": 1000.0, "prior": "gravity"},
    ),
)


class TestFailureSweep:
    def test_records_cover_cases_times_methods(self, dumbbell_scenario):
        cases = enumerate_failures(dumbbell_scenario.network, kinds=("link",))[:5]
        records = failure_sweep(dumbbell_scenario, specs=SPECS, cases=cases)
        assert len(records) == len(cases) * len(SPECS)
        assert [r.case for r in records[:2]] == [cases[0].name] * 2
        assert {r.method for r in records} == {"gravity", "tomogravity"}

    def test_baseline_included_by_default(self, dumbbell_scenario):
        records = failure_sweep(dumbbell_scenario, specs=SPECS)
        assert records[0].case == "baseline"
        assert records[0].kind == "baseline"
        # baseline + every single-link failure
        assert len(records) == (dumbbell_scenario.network.num_links + 1) * len(SPECS)

    def test_partition_yields_structured_infeasible_record(self, dumbbell_scenario):
        case = FailureCase(
            name="link-pair:C<->D", kind="link-pair", failed_links=("C->D", "D->C")
        )
        records = failure_sweep(dumbbell_scenario, specs=SPECS, cases=[case])
        assert len(records) == len(SPECS)
        for record in records:
            assert not record.feasible
            assert not record.skipped
            assert record.num_infeasible_pairs == 18  # all cross-triangle demands
            assert record.lost_traffic > 0
            # The numbers stay well-defined (surviving traffic only).
            assert math.isfinite(record.true_max_utilisation)

    def test_skipped_method_records_error(self, dumbbell_scenario):
        specs = (
            MethodSpec(label="gravity", estimator="gravity"),
            MethodSpec(label="broken", estimator="vardi", params={"poisson_weight": -1.0}),
        )
        cases = enumerate_failures(dumbbell_scenario.network, kinds=("link",))[:2]
        records = failure_sweep(dumbbell_scenario, specs=specs, cases=cases)
        broken = [r for r in records if r.method == "broken"]
        assert len(broken) == len(cases)
        for record in broken:
            assert record.skipped and record.error
            assert math.isnan(record.predicted_max_utilisation)
            assert math.isnan(record.max_utilisation_error)
        # The healthy method is unaffected.
        assert all(not r.skipped for r in records if r.method == "gravity")

    def test_skip_errors_false_raises(self, dumbbell_scenario):
        from repro.errors import ReproError

        specs = (MethodSpec(label="broken", estimator="vardi", params={"poisson_weight": -1.0}),)
        with pytest.raises(ReproError):
            failure_sweep(dumbbell_scenario, specs=specs, skip_errors=False)

    def test_growth_scales_utilisations(self, dumbbell_scenario):
        cases = enumerate_failures(dumbbell_scenario.network, kinds=("link",))[:3]
        base = failure_sweep(dumbbell_scenario, specs=SPECS, cases=cases)
        grown = failure_sweep(dumbbell_scenario, specs=SPECS, cases=cases, growth=2.0)
        for a, b in zip(base, grown):
            assert b.true_max_utilisation == pytest.approx(2 * a.true_max_utilisation)
            assert b.predicted_max_utilisation == pytest.approx(
                2 * a.predicted_max_utilisation
            )

    def test_serial_equals_parallel(self, dumbbell_scenario):
        serial = failure_sweep(dumbbell_scenario, specs=SPECS, n_jobs=1)
        parallel = failure_sweep(dumbbell_scenario, specs=SPECS, n_jobs=4)
        assert serial == parallel

    def test_serial_equals_parallel_with_partitions_and_skips(self, dumbbell_scenario):
        specs = SPECS + (
            MethodSpec(label="broken", estimator="vardi", params={"poisson_weight": -1.0}),
        )
        cases = enumerate_failures(
            dumbbell_scenario.network, kinds=("link", "link-pair", "node")
        )
        serial = failure_sweep(dumbbell_scenario, specs=specs, cases=cases, n_jobs=1)
        parallel = failure_sweep(dumbbell_scenario, specs=specs, cases=cases, n_jobs=3)
        # NaN != NaN, so compare records field-by-field.
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert (a.scenario, a.method, a.case, a.kind) == (
                b.scenario,
                b.method,
                b.case,
                b.kind,
            )
            assert a.feasible == b.feasible and a.error == b.error
            for field in (
                "num_infeasible_pairs",
                "lost_traffic",
                "predicted_max_utilisation",
                "true_max_utilisation",
                "max_utilisation_error",
                "mean_utilisation_error",
                "congestion_hits",
                "congestion_misses",
                "congestion_false_alarms",
            ):
                left, right = getattr(a, field), getattr(b, field)
                assert left == right or (
                    isinstance(left, float) and math.isnan(left) and math.isnan(right)
                ), field


    def test_utilisations_equal_full_rebuild_projections(self, dumbbell_scenario):
        # Every case routed again from scratch, the planning error of each
        # method projected through that matrix: the engine's reroute must
        # report the same utilisations on link, link-pair and node cases.
        network = dumbbell_scenario.network
        cases = enumerate_failures(network, kinds=("link", "link-pair", "node"))
        assert len(cases) == 27
        estimates = estimate_method_specs(dumbbell_scenario, SPECS)
        records = failure_sweep(
            dumbbell_scenario, cases=cases, estimates=estimates, include_baseline=False
        )
        assert len(records) == len(cases) * len(estimates)
        records_by_case = iter(records)
        for case in cases:
            routing, infeasible = full_rebuild_routing(network, case)
            for result in estimates:
                record = next(records_by_case)
                assert (record.case, record.method) == (case.name, result.label)
                truth = project_load(routing, result.truth, case=case, infeasible_pairs=infeasible)
                predicted = project_load(
                    routing, result.estimate, case=case, infeasible_pairs=infeasible
                )
                assert record.true_max_utilisation == pytest.approx(
                    truth.max_utilisation, rel=0, abs=1e-12
                )
                assert record.predicted_max_utilisation == pytest.approx(
                    predicted.max_utilisation, rel=0, abs=1e-12
                )

class TestAggregation:
    @pytest.fixture
    def records(self, dumbbell_scenario):
        cases = enumerate_failures(
            dumbbell_scenario.network, kinds=("link", "link-pair"), include_baseline=True
        )
        return failure_sweep(dumbbell_scenario, specs=SPECS, cases=cases)

    def test_summary_table_layout(self, records):
        table = planning_summary_table(records)
        assert set(table) == {"gravity", "tomogravity"}
        summary = table["gravity"]
        assert summary["cases"] == len(records) / 2
        # The two bridge-direction failures and the bridge pair partition.
        assert summary["infeasible_cases"] == 3.0
        assert summary["skipped_cases"] == 0.0
        assert 0 <= summary["mean_max_utilisation_error"]
        assert summary["mean_max_utilisation_error"] <= summary["worst_max_utilisation_error"]
        # No link crosses the default 0.9 threshold on this scenario, so the
        # congestion scores are undefined rather than a vacuous 100 %.
        assert math.isnan(summary["congestion_recall"])
        assert math.isnan(summary["congestion_precision"])

    def test_congestion_scores_with_positives(self, dumbbell_scenario):
        # The bridge carries every cross-triangle demand; a low threshold
        # makes it a true congestion positive that both methods must flag.
        cases = enumerate_failures(dumbbell_scenario.network, kinds=("link",))[:3]
        records = failure_sweep(
            dumbbell_scenario, specs=SPECS, cases=cases, utilisation_threshold=0.3
        )
        table = planning_summary_table(records)
        for summary in table.values():
            assert 0 <= summary["congestion_recall"] <= 1
            assert 0 <= summary["congestion_precision"] <= 1
        assert any(r.congestion_hits + r.congestion_misses > 0 for r in records)

    def test_profile_sorted_by_true_utilisation(self, records):
        profile = utilisation_error_profile(records)
        for method, series in profile.items():
            trues = series["true_max_utilisation"]
            assert np.all(np.diff(trues) <= 1e-12)
            np.testing.assert_allclose(
                series["max_utilisation_error"],
                np.abs(series["predicted_max_utilisation"] - trues),
            )

    def test_infeasible_cases_excluded_from_profile(self, records):
        profile = utilisation_error_profile(records)
        feasible_count = sum(
            1 for r in records if r.method == "gravity" and r.feasible and not r.skipped
        )
        assert len(profile["gravity"]["case"]) == feasible_count
