"""Tests for diurnal traffic profiles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.traffic import (
    FIVE_MINUTES,
    SECONDS_PER_DAY,
    DiurnalProfile,
    american_profile,
    european_profile,
    flat_profile,
)


class TestDiurnalProfile:
    def test_levels_bounded_and_peak_normalised(self):
        profile = DiurnalProfile(peak_hour=20.0, trough_ratio=0.3)
        samples = profile.sample_day()
        assert samples.shape == (288,)
        assert samples.max() == pytest.approx(1.0, abs=1e-6)
        assert samples.min() >= 0.2

    def test_peak_occurs_near_configured_hour(self):
        profile = DiurnalProfile(peak_hour=20.0, trough_ratio=0.3, sharpness=3.0)
        assert profile.busy_hour() == pytest.approx(20.0, abs=0.5)

    def test_scalar_and_array_evaluation_agree(self):
        profile = european_profile()
        times = np.array([0.0, 3600.0, 7200.0])
        array_levels = profile.level(times)
        scalar_levels = [profile.level(float(t)) for t in times]
        assert np.allclose(array_levels, scalar_levels)

    def test_periodicity(self):
        profile = american_profile()
        assert profile.level(1000.0) == pytest.approx(profile.level(1000.0 + SECONDS_PER_DAY))

    def test_morning_bump_adds_secondary_plateau(self):
        base = DiurnalProfile(peak_hour=20.0, trough_ratio=0.2, sharpness=3.0)
        bumped = DiurnalProfile(
            peak_hour=20.0, trough_ratio=0.2, sharpness=3.0, morning_hour=9.0, morning_ratio=0.9
        )
        nine_am = 9 * 3600.0
        assert bumped.level(nine_am) > base.level(nine_am)

    def test_sampling_interval_validation(self):
        with pytest.raises(TrafficError):
            flat_profile().sample_day(interval_seconds=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"peak_hour": 25.0},
            {"trough_ratio": 0.0},
            {"trough_ratio": 1.5},
            {"sharpness": 0.0},
            {"morning_hour": 30.0},
            {"morning_ratio": 2.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(TrafficError):
            DiurnalProfile(**kwargs)


class TestRegionProfiles:
    def test_busy_periods_differ_but_overlap_around_18_gmt(self):
        """Reproduces the qualitative structure of the paper's Figure 1."""
        europe = european_profile()
        america = american_profile()
        assert europe.busy_hour() != america.busy_hour()
        # Around 18:00 GMT both regions carry a large share of their peak.
        evening = 18 * 3600.0
        assert europe.level(evening) > 0.7
        assert america.level(evening) > 0.7

    def test_flat_profile_is_nearly_constant(self):
        samples = flat_profile().sample_day()
        assert samples.min() > 0.95

    def test_five_minute_constant(self):
        assert FIVE_MINUTES == 300.0
        assert SECONDS_PER_DAY == 86400
