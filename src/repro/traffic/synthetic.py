"""Synthetic traffic-matrix generation calibrated to the paper's data analysis.

The measured Global Crossing traffic matrices are proprietary, so the
reproduction generates synthetic demand processes that reproduce every
statistic the paper reports about its data:

* a clear **diurnal cycle** of the total traffic with busy periods that
  differ between regions (Figure 1) — via
  :class:`~repro.traffic.diurnal.DiurnalProfile`;
* strong **spatial concentration**: the top 20 % of demands carry roughly
  80 % of the traffic (Figure 2), with a few dominating source/destination
  hot spots (Figure 3);
* **gravity-model violations**: per-pair affinity factors distort the
  population-gravity baseline, mildly for the European-like network and
  strongly for the American-like one, reproducing Figure 7 where the simple
  gravity model underestimates the large American demands;
* **stable fanouts** for large sources (Figures 4-5): the spatial structure
  is held fixed over the day up to small jitter while total per-origin
  volumes follow the diurnal cycle;
* the **generalised mean-variance scaling law** ``Var = phi * mean ** c``
  (Figure 6) for the 5-minute fluctuations around the slowly varying mean.

The two public entry points are :func:`base_demand_matrix` (a single mean
traffic matrix) and :class:`SyntheticTrafficModel` (a full day of five-minute
snapshots).  :func:`poisson_series` generates the i.i.d. Poisson snapshots
used by the paper's synthetic Vardi experiment (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import TrafficError
from repro.topology.elements import NodePair
from repro.topology.network import Network
from repro.traffic.diurnal import FIVE_MINUTES, SECONDS_PER_DAY, DiurnalProfile, flat_profile
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSeries
from repro.traffic.meanvariance import ScalingLaw

__all__ = [
    "SyntheticTrafficConfig",
    "base_demand_matrix",
    "SyntheticTrafficModel",
    "poisson_series",
]


@dataclass(frozen=True)
class SyntheticTrafficConfig:
    """Parameters of the synthetic demand generator.

    Parameters
    ----------
    total_traffic_mbps:
        Total network traffic at the busy-hour peak.
    top_fraction, top_share:
        Concentration target: the largest ``top_fraction`` of demands should
        carry about ``top_share`` of total traffic (the paper's 20 %/80 %).
    gravity_distortion:
        Standard deviation (in log space) of the per-pair affinity factors
        that pull the matrix away from the pure gravity structure.  Around
        0.5 the gravity model still fits reasonably (European behaviour);
        around 1.3 it underestimates the large demands badly (American
        behaviour).
    scaling_law:
        Mean-variance law of the five-minute fluctuations.
    fanout_jitter:
        Relative standard deviation of the slow per-pair modulation applied
        on top of the diurnal cycle; small values keep fanouts stable.
    origin_phase_spread_hours:
        Per-origin peak-hour spread; origins do not all peak at exactly the
        same minute.
    """

    total_traffic_mbps: float = 20_000.0
    top_fraction: float = 0.2
    top_share: float = 0.8
    gravity_distortion: float = 0.5
    scaling_law: ScalingLaw = field(default_factory=lambda: ScalingLaw(phi=1.0, c=1.5))
    fanout_jitter: float = 0.03
    origin_phase_spread_hours: float = 1.0

    def __post_init__(self) -> None:
        if self.total_traffic_mbps <= 0:
            raise TrafficError("total_traffic_mbps must be positive")
        if not 0 < self.top_fraction < 1:
            raise TrafficError("top_fraction must lie in (0, 1)")
        if not 0 < self.top_share < 1:
            raise TrafficError("top_share must lie in (0, 1)")
        if self.top_share < self.top_fraction:
            raise TrafficError("top_share must be at least top_fraction (concentration)")
        if self.gravity_distortion < 0:
            raise TrafficError("gravity_distortion must be non-negative")
        if self.fanout_jitter < 0:
            raise TrafficError("fanout_jitter must be non-negative")
        if self.origin_phase_spread_hours < 0:
            raise TrafficError("origin_phase_spread_hours must be non-negative")


def _top_share(values: np.ndarray, top_fraction: float) -> float:
    """Share of total volume carried by the largest ``top_fraction`` of values."""
    total = values.sum()
    if total <= 0:
        raise TrafficError("cannot compute concentration of a zero matrix")
    count = max(1, int(round(top_fraction * len(values))))
    largest = np.sort(values)[::-1][:count]
    return float(largest.sum() / total)


def _apply_concentration(
    values: np.ndarray, top_fraction: float, top_share: float, tolerance: float = 0.01
) -> np.ndarray:
    """Exponentiate ``values`` (preserving their order) to hit a concentration target.

    Raising every value to a power ``gamma > 0`` preserves the ranking while
    monotonically adjusting how concentrated the distribution is; a simple
    bisection on ``gamma`` therefore drives the top-``top_fraction`` share to
    the requested ``top_share``.
    """
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise TrafficError("values must be non-negative")
    positive = values > 0
    if not np.any(positive):
        raise TrafficError("cannot concentrate an all-zero vector")

    def share_for(gamma: float) -> float:
        adjusted = np.zeros_like(values)
        adjusted[positive] = np.power(values[positive], gamma)
        return _top_share(adjusted, top_fraction)

    low, high = 0.05, 20.0
    if share_for(low) > top_share:
        gamma = low
    elif share_for(high) < top_share:
        gamma = high
    else:
        gamma = 1.0
        for _ in range(60):
            gamma = 0.5 * (low + high)
            current = share_for(gamma)
            if abs(current - top_share) <= tolerance:
                break
            if current < top_share:
                low = gamma
            else:
                high = gamma
    adjusted = np.zeros_like(values)
    adjusted[positive] = np.power(values[positive], gamma)
    return adjusted


def base_demand_matrix(
    network: Network,
    config: Optional[SyntheticTrafficConfig] = None,
    seed: Optional[int] = None,
) -> TrafficMatrix:
    """Generate the mean (busy-hour) traffic matrix for ``network``.

    The construction starts from a population-gravity structure
    ``s_nm ~ pop_n * pop_m``, multiplies each pair by a log-normal affinity
    factor (hot-spot structure / gravity violation), adjusts the
    concentration so the top 20 % of demands carry about 80 % of the
    traffic, and scales the total to ``config.total_traffic_mbps``.
    """
    config = config or SyntheticTrafficConfig()
    rng = np.random.default_rng(seed)
    pairs = network.node_pairs()
    if not pairs:
        raise TrafficError(f"network {network.name!r} has no origin-destination pairs")
    populations = {node.name: node.population for node in network.nodes}
    origins, destinations, origin_codes, destination_codes = pairs.codes()
    origin_populations = np.array([populations[name] for name in origins], dtype=float)
    destination_populations = np.array([populations[name] for name in destinations], dtype=float)
    gravity = origin_populations[origin_codes] * destination_populations[destination_codes]
    affinity = rng.lognormal(mean=0.0, sigma=config.gravity_distortion, size=len(pairs))
    raw = gravity * affinity
    concentrated = _apply_concentration(raw, config.top_fraction, config.top_share)
    scaled = concentrated * (config.total_traffic_mbps / concentrated.sum())
    return TrafficMatrix(pairs, scaled)


class SyntheticTrafficModel:
    """A day-long synthetic demand process over a network.

    Parameters
    ----------
    network:
        The backbone the demands live on.
    base_matrix:
        Busy-hour mean traffic matrix (e.g. from :func:`base_demand_matrix`).
    profile:
        Diurnal profile of the region.
    config:
        Generator configuration (scaling law, jitters, ...).
    seed:
        Seed for the internal random generator; a fixed seed makes the whole
        day reproducible.
    """

    def __init__(
        self,
        network: Network,
        base_matrix: TrafficMatrix,
        profile: Optional[DiurnalProfile] = None,
        config: Optional[SyntheticTrafficConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.network = network
        self.config = config or SyntheticTrafficConfig()
        self.profile = profile or flat_profile()
        pairs = network.node_pairs()
        if base_matrix.pairs != pairs:
            raise TrafficError("base matrix pair ordering does not match the network")
        self.base_matrix = base_matrix
        self._rng = np.random.default_rng(seed)
        labels, _, origin_codes, _ = pairs.codes()
        # Sorted, not first-appearance, order: it fixes the order of the
        # per-origin phase draws below.
        origins = sorted(labels)
        spread = self.config.origin_phase_spread_hours
        self._origin_phase = {
            origin: float(self._rng.uniform(-spread, spread)) for origin in origins
        }
        # Slow per-pair modulation (kept fixed for the day) controls how much
        # fanouts drift; small jitter keeps them stable as in Figures 4-5.
        self._pair_modulation = self._rng.normal(
            loc=1.0, scale=self.config.fanout_jitter, size=len(pairs)
        ).clip(min=0.0)
        # The diurnal level depends only on the origin's phase, so each
        # snapshot needs one profile evaluation per *origin*, scattered to
        # the pairs through this index array — not one per pair, which is
        # what makes day generation tractable on large meshes.
        self._phase_seconds = np.array([self._origin_phase[origin] * 3600.0 for origin in origins])
        origin_pos = {name: idx for idx, name in enumerate(origins)}
        self._pair_origin_index = np.array(
            [origin_pos[name] for name in labels], dtype=np.intp
        )[origin_codes]

    # ------------------------------------------------------------------
    def mean_at(self, time_seconds: float) -> np.ndarray:
        """Instantaneous mean demand vector at ``time_seconds``."""
        base = self.base_matrix.vector
        origin_levels = np.asarray(self.profile.level(time_seconds + self._phase_seconds))
        levels = origin_levels[self._pair_origin_index]
        return base * levels * self._pair_modulation

    def snapshot_at(self, time_seconds: float) -> TrafficMatrix:
        """Draw one five-minute snapshot at ``time_seconds``.

        The snapshot equals the instantaneous mean plus a fluctuation whose
        variance follows the configured mean-variance scaling law, truncated
        at zero.  The fluctuation is ``mean + std * z`` for one standard
        normal draw ``z`` per pair, scaled and shifted in place: the same
        draws and arithmetic as ``Generator.normal(mean, std)``, bit for bit.
        """
        mean = self.mean_at(time_seconds)
        std = np.sqrt(self.config.scaling_law.variance(mean))
        values = self._rng.standard_normal(len(mean))
        values *= std
        values += mean
        np.maximum(values, 0.0, out=values)
        return TrafficMatrix(self.base_matrix.pairs, values)

    def generate_day(
        self,
        interval_seconds: float = FIVE_MINUTES,
        start_time_seconds: float = 0.0,
    ) -> TrafficMatrixSeries:
        """Generate a full day of snapshots (288 samples at 5 minutes)."""
        if interval_seconds <= 0:
            raise TrafficError("interval_seconds must be positive")
        times = np.arange(start_time_seconds, start_time_seconds + SECONDS_PER_DAY, interval_seconds)
        snapshots = [self.snapshot_at(float(t)) for t in times]
        return TrafficMatrixSeries(
            snapshots, interval_seconds=interval_seconds, start_time_seconds=start_time_seconds
        )

    def generate_series(
        self,
        num_samples: int,
        interval_seconds: float = FIVE_MINUTES,
        start_time_seconds: float = 18.0 * 3600,
    ) -> TrafficMatrixSeries:
        """Generate ``num_samples`` consecutive snapshots (default: busy hour onwards)."""
        if num_samples <= 0:
            raise TrafficError("num_samples must be positive")
        times = start_time_seconds + interval_seconds * np.arange(num_samples)
        snapshots = [self.snapshot_at(float(t)) for t in times]
        return TrafficMatrixSeries(
            snapshots, interval_seconds=interval_seconds, start_time_seconds=start_time_seconds
        )


def poisson_series(
    mean_matrix: TrafficMatrix,
    num_samples: int,
    seed: Optional[int] = None,
    interval_seconds: float = FIVE_MINUTES,
) -> TrafficMatrixSeries:
    """Generate i.i.d. Poisson snapshots around a mean traffic matrix.

    This reproduces the paper's synthetic experiment (Figure 12): the mean
    of the measured demands over the busy period is used as the Poisson
    intensity ``lambda_p``, and a time series of independent Poisson
    matrices is drawn from it to study how many samples the Vardi method
    needs even when its modelling assumption holds exactly.
    """
    if num_samples <= 0:
        raise TrafficError("num_samples must be positive")
    rng = np.random.default_rng(seed)
    lam = mean_matrix.vector
    snapshots = [
        TrafficMatrix(mean_matrix.pairs, rng.poisson(lam).astype(float))
        for _ in range(num_samples)
    ]
    return TrafficMatrixSeries(snapshots, interval_seconds=interval_seconds)
