"""Tests for the synthetic traffic generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.topology import random_backbone
from repro.traffic import (
    ScalingLaw,
    SyntheticTrafficConfig,
    SyntheticTrafficModel,
    TrafficMatrix,
    american_profile,
    base_demand_matrix,
    european_profile,
    poisson_series,
    scaling_law_from_series,
)


@pytest.fixture(scope="module")
def network():
    return random_backbone(8, avg_degree=3.0, seed=5)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_traffic_mbps": 0.0},
            {"top_fraction": 0.0},
            {"top_share": 1.5},
            {"top_fraction": 0.5, "top_share": 0.3},
            {"gravity_distortion": -1.0},
            {"fanout_jitter": -0.1},
            {"origin_phase_spread_hours": -1.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(TrafficError):
            SyntheticTrafficConfig(**kwargs)


class TestBaseMatrix:
    def test_total_traffic_matches_config(self, network):
        config = SyntheticTrafficConfig(total_traffic_mbps=5000.0)
        base = base_demand_matrix(network, config, seed=1)
        assert base.total == pytest.approx(5000.0, rel=1e-9)
        assert np.all(base.vector >= 0)

    def test_concentration_target_hit(self, network):
        config = SyntheticTrafficConfig(top_fraction=0.2, top_share=0.8)
        base = base_demand_matrix(network, config, seed=2)
        values = np.sort(base.vector)[::-1]
        top = values[: max(1, int(round(0.2 * len(values))))]
        assert top.sum() / values.sum() == pytest.approx(0.8, abs=0.05)

    def test_deterministic_for_seed(self, network):
        config = SyntheticTrafficConfig()
        first = base_demand_matrix(network, config, seed=3)
        second = base_demand_matrix(network, config, seed=3)
        assert np.allclose(first.vector, second.vector)

    def test_distortion_increases_gravity_violation(self, network):
        mild = base_demand_matrix(
            network, SyntheticTrafficConfig(gravity_distortion=0.1), seed=4
        )
        wild = base_demand_matrix(
            network, SyntheticTrafficConfig(gravity_distortion=2.0), seed=4
        )

        def gravity_correlation(matrix):
            origin = matrix.origin_totals()
            destination = matrix.destination_totals()
            total = matrix.total
            predicted = np.array(
                [origin[p.origin] * destination[p.destination] / total for p in matrix.pairs]
            )
            return np.corrcoef(predicted, matrix.vector)[0, 1]

        assert gravity_correlation(mild) > gravity_correlation(wild)


class TestSyntheticModel:
    def test_generate_day_has_288_samples(self, network):
        config = SyntheticTrafficConfig(total_traffic_mbps=3000.0)
        base = base_demand_matrix(network, config, seed=6)
        model = SyntheticTrafficModel(network, base, european_profile(), config, seed=6)
        day = model.generate_day()
        assert len(day) == 288
        assert day.interval_seconds == 300.0

    def test_diurnal_cycle_visible_in_totals(self, network):
        config = SyntheticTrafficConfig(total_traffic_mbps=3000.0)
        base = base_demand_matrix(network, config, seed=7)
        model = SyntheticTrafficModel(network, base, european_profile(), config, seed=7)
        totals = model.generate_day().total_traffic_series()
        assert totals.max() > 2.0 * totals.min()

    def test_fanouts_more_stable_than_demands(self, network):
        """The paper's Figure 4/5 property: fanout CoV below demand CoV."""
        config = SyntheticTrafficConfig(total_traffic_mbps=3000.0, fanout_jitter=0.02)
        base = base_demand_matrix(network, config, seed=8)
        model = SyntheticTrafficModel(network, base, european_profile(), config, seed=8)
        day = model.generate_day()
        array = day.as_array()
        fanouts = day.fanout_series()
        means = array.mean(axis=0)
        largest = np.argsort(means)[-10:]
        demand_cov = array[:, largest].std(axis=0) / array[:, largest].mean(axis=0)
        fanout_cov = fanouts[:, largest].std(axis=0) / fanouts[:, largest].mean(axis=0)
        assert fanout_cov.mean() < demand_cov.mean()

    def test_scaling_law_recovered_from_busy_window(self, network):
        config = SyntheticTrafficConfig(
            total_traffic_mbps=5000.0, scaling_law=ScalingLaw(phi=1.0, c=1.5)
        )
        base = base_demand_matrix(network, config, seed=9)
        model = SyntheticTrafficModel(network, base, european_profile(), config, seed=9)
        busy = model.generate_series(60, start_time_seconds=19.5 * 3600)
        law = scaling_law_from_series(busy)
        assert law.c == pytest.approx(1.5, abs=0.35)

    def test_mismatched_base_matrix_rejected(self, network):
        config = SyntheticTrafficConfig()
        other = random_backbone(5, seed=1)
        base = base_demand_matrix(other, config, seed=1)
        with pytest.raises(TrafficError):
            SyntheticTrafficModel(network, base, config=config)

    def test_generate_series_validation(self, network):
        config = SyntheticTrafficConfig()
        base = base_demand_matrix(network, config, seed=10)
        model = SyntheticTrafficModel(network, base, config=config, seed=10)
        with pytest.raises(TrafficError):
            model.generate_series(0)
        with pytest.raises(TrafficError):
            model.generate_day(interval_seconds=0.0)


class NormalDrawModel(SyntheticTrafficModel):
    """The model drawing each snapshot with ``Generator.normal(loc, scale)``."""

    def snapshot_at(self, time_seconds: float) -> TrafficMatrix:
        mean = self.mean_at(time_seconds)
        std = np.sqrt(self.config.scaling_law.variance(mean))
        values = np.maximum(self._rng.normal(loc=mean, scale=std), 0.0)
        return TrafficMatrix(self.base_matrix.pairs, values)


class TestSnapshotDraws:
    """``snapshot_at`` scales standard normal draws in place, bit for bit."""

    CASES = {
        "europe-like": (
            12,
            SyntheticTrafficConfig(
                total_traffic_mbps=12_000.0,
                gravity_distortion=0.45,
                scaling_law=ScalingLaw(phi=0.8, c=1.6),
            ),
        ),
        "america-like": (
            25,
            SyntheticTrafficConfig(
                total_traffic_mbps=35_000.0,
                gravity_distortion=1.3,
                scaling_law=ScalingLaw(phi=2.4, c=1.5),
                fanout_jitter=0.04,
                origin_phase_spread_hours=1.5,
            ),
        ),
        "large-60": (
            60,
            SyntheticTrafficConfig(
                total_traffic_mbps=36_000.0,
                gravity_distortion=0.7,
                origin_phase_spread_hours=0.75,
            ),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("span", ["series", "day"])
    def test_equal_to_normal_draws(self, case, span):
        num_nodes, config = self.CASES[case]
        network = random_backbone(num_nodes, avg_degree=3.0, seed=num_nodes)
        base = base_demand_matrix(network, config, seed=1)
        models = [
            cls(network, base, profile=american_profile(), config=config, seed=2)
            for cls in (SyntheticTrafficModel, NormalDrawModel)
        ]
        if span == "series":
            days = [model.generate_series(48, start_time_seconds=16.0 * 3600) for model in models]
        else:
            days = [model.generate_day() for model in models]
        drawn, expected = (day.as_array() for day in days)
        assert drawn.tobytes() == expected.tobytes()
        # Some draws were truncated at zero, so the comparison covers that too.
        assert (drawn == 0.0).any()


class TestPoissonSeries:
    def test_mean_matches_intensities(self, network):
        config = SyntheticTrafficConfig(total_traffic_mbps=50_000.0)
        base = base_demand_matrix(network, config, seed=11)
        series = poisson_series(base, 400, seed=11)
        assert len(series) == 400
        means = series.demand_means()
        large = base.vector > 100.0
        assert np.allclose(means[large], base.vector[large], rtol=0.1)

    def test_variance_close_to_mean(self, network):
        config = SyntheticTrafficConfig(total_traffic_mbps=50_000.0)
        base = base_demand_matrix(network, config, seed=12)
        series = poisson_series(base, 600, seed=12)
        large = base.vector > 500.0
        ratio = series.demand_variances()[large] / base.vector[large]
        assert np.median(ratio) == pytest.approx(1.0, abs=0.25)

    def test_invalid_sample_count_rejected(self, network):
        base = base_demand_matrix(network, SyntheticTrafficConfig(), seed=13)
        with pytest.raises(TrafficError):
            poisson_series(base, 0)
