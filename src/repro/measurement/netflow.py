"""NetFlow-style flow aggregation (the measurement method the paper improves on).

Previous studies validated traffic-matrix estimation against demands derived
from NetFlow traces.  NetFlow exports, for each flow, its start time, end
time and byte count; the collector then spreads the bytes *uniformly* over
the flow's lifetime.  As the paper points out (Section 5), this destroys the
within-flow rate variability, which matters when validating methods (Vardi,
Cao) that rely on the variance of 5-minute samples.

This module reproduces that pipeline so the effect can be demonstrated:

* :class:`FlowRecord` — one exported flow;
* :func:`flows_from_series` — decompose a demand time series into synthetic
  flow records (each demand becomes a set of overlapping flows whose summed
  rate matches the series);
* :class:`NetFlowAggregator` — rebuild per-interval demand estimates from
  flow records using the uniform-rate assumption;
* :func:`netflow_smoothed_series` — end-to-end helper returning the
  variance-smoothed series that a NetFlow-based study would have used.

The ablation benchmark ``bench_ablation_netflow`` uses this module to show
that the per-demand variances of the NetFlow-derived series are biased low
relative to the directly measured series, which is the paper's argument for
using direct LSP measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import MeasurementError
from repro.topology.elements import NodePair, PairIndex
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSeries

__all__ = [
    "FlowRecord",
    "flows_from_series",
    "NetFlowAggregator",
    "netflow_smoothed_series",
]


@dataclass(frozen=True)
class FlowRecord:
    """One exported flow record.

    Attributes
    ----------
    pair:
        Origin-destination pair the flow belongs to.
    start_time, end_time:
        Flow lifetime in seconds; ``end_time`` must be strictly greater.
    total_bytes:
        Bytes transferred during the lifetime.
    """

    pair: NodePair
    start_time: float
    end_time: float
    total_bytes: float

    def __post_init__(self) -> None:
        if self.end_time <= self.start_time:
            raise MeasurementError("flow end_time must be after start_time")
        if self.total_bytes < 0:
            raise MeasurementError("flow byte count must be non-negative")

    @property
    def duration(self) -> float:
        """Flow lifetime in seconds."""
        return self.end_time - self.start_time

    def bytes_in_window(self, window_start: float, window_end: float) -> float:
        """Bytes attributed to ``[window_start, window_end)`` under the uniform assumption."""
        overlap = min(self.end_time, window_end) - max(self.start_time, window_start)
        if overlap <= 0:
            return 0.0
        return self.total_bytes * overlap / self.duration


def flows_from_series(
    series: TrafficMatrixSeries,
    mean_flow_duration_seconds: float = 1800.0,
    seed: Optional[int] = None,
) -> list[FlowRecord]:
    """Decompose a demand series into synthetic long-lived flow records.

    Each demand's traffic over the series is carried by flows whose
    lifetimes are exponential with the given mean and which together account
    for exactly the demand's byte volume.  Longer flows mean more smoothing
    when the records are aggregated back, which is the effect under study.
    """
    if mean_flow_duration_seconds <= 0:
        raise MeasurementError("mean_flow_duration_seconds must be positive")
    rng = np.random.default_rng(seed)
    interval = series.interval_seconds
    start = series.start_time_seconds
    horizon = start + interval * len(series)
    array = series.as_array()
    flows: list[FlowRecord] = []
    for pair_idx, pair in enumerate(series.pairs):
        volume_bytes = float(array[:, pair_idx].sum()) * interval * 1e6 / 8.0
        if volume_bytes <= 0:
            continue
        # Cover the observation window with flows of random lifetimes; each
        # flow gets the bytes the true process produced during its lifetime.
        cursor = start
        while cursor < horizon:
            duration = float(rng.exponential(mean_flow_duration_seconds))
            duration = max(duration, interval / 10.0)
            end = min(cursor + duration, horizon)
            first = int((cursor - start) // interval)
            last = int(np.ceil((end - start) / interval))
            flow_bytes = 0.0
            for k in range(first, min(last, len(series))):
                window_start = start + k * interval
                window_end = window_start + interval
                overlap = min(end, window_end) - max(cursor, window_start)
                if overlap > 0:
                    flow_bytes += float(array[k, pair_idx]) * 1e6 / 8.0 * overlap
            flows.append(
                FlowRecord(pair=pair, start_time=cursor, end_time=end, total_bytes=flow_bytes)
            )
            cursor = end
    return flows


class NetFlowAggregator:
    """Rebuild per-interval demands from flow records (uniform-rate assumption).

    Parameters
    ----------
    pairs:
        The pair ordering of the output matrices.
    interval_seconds:
        Aggregation interval (300 s to match the rest of the pipeline).
    """

    def __init__(self, pairs: Sequence[NodePair], interval_seconds: float = 300.0) -> None:
        if interval_seconds <= 0:
            raise MeasurementError("interval_seconds must be positive")
        self.pairs = PairIndex.of(pairs)
        self.interval_seconds = float(interval_seconds)

    def aggregate(
        self,
        flows: Sequence[FlowRecord],
        start_time: float,
        num_intervals: int,
    ) -> TrafficMatrixSeries:
        """Aggregate flow records into a traffic-matrix series.

        Bytes of each flow are spread uniformly over its lifetime and binned
        into the requested intervals, exactly as a NetFlow collector would.
        """
        if num_intervals <= 0:
            raise MeasurementError("num_intervals must be positive")
        volumes = np.zeros((num_intervals, len(self.pairs)))
        for flow in flows:
            try:
                col = self.pairs.position(flow.pair)
            except KeyError as exc:
                raise MeasurementError(f"flow references unknown pair {flow.pair}") from exc
            for k in range(num_intervals):
                window_start = start_time + k * self.interval_seconds
                window_end = window_start + self.interval_seconds
                volumes[k, col] += flow.bytes_in_window(window_start, window_end)
        rates = volumes * 8.0 / 1e6 / self.interval_seconds
        snapshots = [TrafficMatrix(self.pairs, rates[k]) for k in range(num_intervals)]
        return TrafficMatrixSeries(
            snapshots, interval_seconds=self.interval_seconds, start_time_seconds=start_time
        )


def netflow_smoothed_series(
    series: TrafficMatrixSeries,
    mean_flow_duration_seconds: float = 1800.0,
    seed: Optional[int] = None,
) -> TrafficMatrixSeries:
    """End-to-end NetFlow emulation: true series -> flow export -> re-aggregation.

    The result has (approximately) the same per-demand means as the input
    but smaller per-demand variances, because within-flow variability has
    been averaged away — the paper's argument for direct LSP measurement.
    """
    flows = flows_from_series(series, mean_flow_duration_seconds, seed=seed)
    aggregator = NetFlowAggregator(series.pairs, interval_seconds=series.interval_seconds)
    return aggregator.aggregate(flows, series.start_time_seconds, len(series))
