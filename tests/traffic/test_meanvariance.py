"""Tests for the mean-variance scaling law."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.topology import NodePair
from repro.traffic import (
    ScalingLaw,
    TrafficMatrix,
    TrafficMatrixSeries,
    fit_scaling_law,
    scaling_law_from_series,
)


class TestScalingLaw:
    def test_variance_prediction(self):
        law = ScalingLaw(phi=2.0, c=1.5)
        assert law.variance(4.0) == pytest.approx(16.0)
        assert np.allclose(law.variance(np.array([1.0, 4.0])), [2.0, 16.0])

    def test_poisson_special_case(self):
        law = ScalingLaw(phi=1.0, c=1.0)
        assert law.variance(7.0) == pytest.approx(7.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TrafficError):
            ScalingLaw(phi=0.0, c=1.0)
        with pytest.raises(TrafficError):
            ScalingLaw(phi=1.0, c=1.0).variance(-1.0)

    def test_sampling_respects_law(self):
        law = ScalingLaw(phi=1.0, c=1.0)
        means = np.array([100.0, 400.0, 900.0])
        rng = np.random.default_rng(0)
        draws = law.sample(means, size=4000, rng=rng)
        assert draws.shape == (4000, 3)
        assert np.all(draws >= 0)
        sample_var = draws.var(axis=0)
        assert np.allclose(sample_var, means, rtol=0.15)

    def test_sampling_validation(self):
        law = ScalingLaw(phi=1.0, c=1.0)
        rng = np.random.default_rng(0)
        with pytest.raises(TrafficError):
            law.sample(np.ones((2, 2)), size=10, rng=rng)
        with pytest.raises(TrafficError):
            law.sample(np.ones(3), size=0, rng=rng)


class TestFit:
    def test_recovers_known_parameters(self):
        law = ScalingLaw(phi=0.8, c=1.6)
        means = np.logspace(0, 4, 50)
        variances = law.variance(means)
        fitted = fit_scaling_law(means, variances)
        assert fitted.phi == pytest.approx(0.8, rel=1e-6)
        assert fitted.c == pytest.approx(1.6, rel=1e-6)

    def test_recovers_parameters_with_noise(self):
        rng = np.random.default_rng(42)
        law = ScalingLaw(phi=2.4, c=1.5)
        means = np.logspace(0, 5, 200)
        variances = law.variance(means) * rng.lognormal(0.0, 0.2, size=len(means))
        fitted = fit_scaling_law(means, variances)
        assert fitted.c == pytest.approx(1.5, abs=0.1)

    def test_zero_entries_are_excluded(self):
        means = np.array([0.0, 1.0, 10.0, 100.0])
        variances = np.array([0.0, 1.0, 10.0, 100.0])
        fitted = fit_scaling_law(means, variances)
        assert fitted.c == pytest.approx(1.0, abs=1e-6)

    def test_too_few_points_rejected(self):
        with pytest.raises(TrafficError):
            fit_scaling_law(np.array([1.0]), np.array([1.0]))
        with pytest.raises(TrafficError):
            fit_scaling_law(np.array([0.0, 0.0]), np.array([0.0, 0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TrafficError):
            fit_scaling_law(np.ones(3), np.ones(4))


class TestFitFromSeries:
    def test_series_fit_matches_direct_fit(self):
        pairs = (NodePair("A", "B"), NodePair("B", "A"), NodePair("A", "C"), NodePair("C", "A"))
        rng = np.random.default_rng(1)
        law = ScalingLaw(phi=1.0, c=1.5)
        means = np.array([10.0, 100.0, 1000.0, 5000.0])
        draws = law.sample(means, size=400, rng=rng)
        series = TrafficMatrixSeries([TrafficMatrix(pairs, row) for row in draws])
        fitted = scaling_law_from_series(series)
        assert fitted.c == pytest.approx(1.5, abs=0.25)
