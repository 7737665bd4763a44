"""Diurnal (time-of-day) traffic profiles.

The paper's Figure 1 shows the normalised total traffic of the European and
American subnetworks over 24 hours: both follow a clear diurnal cycle with
pronounced busy periods that partially overlap around 18:00 GMT (Europe's
evening peak and America's afternoon peak).

:class:`DiurnalProfile` models such a cycle as a smooth, strictly positive
multiplier of a base traffic level.  Profiles are built from a peak hour, a
peak-to-trough ratio and an optional secondary (morning) bump, and can be
sampled at arbitrary timestamps — the generators sample them every five
minutes, matching the paper's measurement interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import TrafficError

__all__ = [
    "DiurnalProfile",
    "european_profile",
    "american_profile",
    "flat_profile",
    "SECONDS_PER_DAY",
    "FIVE_MINUTES",
]

SECONDS_PER_DAY = 24 * 3600
FIVE_MINUTES = 300.0


@dataclass(frozen=True)
class DiurnalProfile:
    """A 24-hour periodic traffic multiplier.

    The multiplier at time ``t`` (seconds since midnight) is

    ``level(t) = base + amplitude * bump(t; peak_hour, width)
               + morning_amplitude * bump(t; morning_hour, width)``

    where ``bump`` is a periodic von-Mises-style bell centred on the peak
    hour.  The profile is normalised so its maximum over the day equals 1,
    making it directly comparable to the paper's normalised plots.

    Parameters
    ----------
    peak_hour:
        Hour of the main busy period (0-24, GMT).
    trough_ratio:
        Ratio of the overnight minimum to the peak (0 < ratio < 1).
    sharpness:
        Concentration of the busy period; larger values give a narrower peak.
    morning_hour, morning_ratio:
        Optional secondary bump (e.g. a business-hours plateau); the
        secondary peak reaches ``morning_ratio`` of the main one.
    """

    peak_hour: float = 20.0
    trough_ratio: float = 0.3
    sharpness: float = 2.0
    morning_hour: float | None = None
    morning_ratio: float = 0.6

    def __post_init__(self) -> None:
        if not 0 <= self.peak_hour < 24:
            raise TrafficError("peak_hour must lie in [0, 24)")
        if not 0 < self.trough_ratio < 1:
            raise TrafficError("trough_ratio must lie in (0, 1)")
        if self.sharpness <= 0:
            raise TrafficError("sharpness must be positive")
        if self.morning_hour is not None and not 0 <= self.morning_hour < 24:
            raise TrafficError("morning_hour must lie in [0, 24)")
        if not 0 <= self.morning_ratio <= 1:
            raise TrafficError("morning_ratio must lie in [0, 1]")

    # ------------------------------------------------------------------
    def _bump(self, hours: np.ndarray, centre: float) -> np.ndarray:
        """Periodic bell centred on ``centre`` with unit maximum."""
        phase = 2 * math.pi * (hours - centre) / 24.0
        return np.exp(self.sharpness * (np.cos(phase) - 1.0))

    def level(self, time_seconds: float | np.ndarray) -> np.ndarray | float:
        """Traffic multiplier at the given time(s), normalised to peak 1."""
        scalar = np.isscalar(time_seconds)
        hours = np.asarray(time_seconds, dtype=float) / 3600.0 % 24.0
        shape = self._bump(hours, self.peak_hour)
        if self.morning_hour is not None:
            shape = np.maximum(shape, self.morning_ratio * self._bump(hours, self.morning_hour))
        value = self.trough_ratio + (1.0 - self.trough_ratio) * shape
        # Normalise so the daily maximum is exactly one.
        grid_hours = np.linspace(0, 24, 289)
        grid = self._bump(grid_hours, self.peak_hour)
        if self.morning_hour is not None:
            grid = np.maximum(grid, self.morning_ratio * self._bump(grid_hours, self.morning_hour))
        peak = self.trough_ratio + (1.0 - self.trough_ratio) * grid.max()
        value = value / peak
        return float(value) if scalar else value

    def sample_day(self, interval_seconds: float = FIVE_MINUTES) -> np.ndarray:
        """Sample the profile at fixed intervals over one day.

        With the default 300-second interval this returns 288 samples,
        matching the paper's 24 hours of five-minute measurements.
        """
        if interval_seconds <= 0:
            raise TrafficError("interval_seconds must be positive")
        times = np.arange(0, SECONDS_PER_DAY, interval_seconds)
        return np.asarray(self.level(times))

    def busy_hour(self, interval_seconds: float = FIVE_MINUTES) -> float:
        """Hour of the day at which the sampled profile is largest."""
        samples = self.sample_day(interval_seconds)
        return float(np.argmax(samples) * interval_seconds / 3600.0)


def european_profile() -> DiurnalProfile:
    """Diurnal profile for the European subnetwork.

    Evening peak around 20:00 GMT with a business-hours shoulder, so that
    the busy period overlaps the American one around 18:00 GMT as in the
    paper's Figure 1.
    """
    return DiurnalProfile(
        peak_hour=19.5, trough_ratio=0.35, sharpness=2.2, morning_hour=10.0, morning_ratio=0.75
    )


def american_profile() -> DiurnalProfile:
    """Diurnal profile for the American subnetwork (peak around 23:00 GMT)."""
    return DiurnalProfile(
        peak_hour=22.5, trough_ratio=0.30, sharpness=1.8, morning_hour=16.0, morning_ratio=0.8
    )


def flat_profile() -> DiurnalProfile:
    """A nearly flat profile, useful for tests that want stationary traffic."""
    return DiurnalProfile(peak_hour=12.0, trough_ratio=0.97, sharpness=0.5)
