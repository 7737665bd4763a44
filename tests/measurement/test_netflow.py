"""Tests for the NetFlow-style aggregation pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measurement import (
    FlowRecord,
    NetFlowAggregator,
    flows_from_series,
    netflow_smoothed_series,
)
from repro.topology import NodePair
from repro.traffic import TrafficMatrix, TrafficMatrixSeries


PAIRS = (NodePair("A", "B"), NodePair("B", "A"))


def bursty_series(num=48, seed=0) -> TrafficMatrixSeries:
    """A series with strong five-minute variability around a stable mean."""
    rng = np.random.default_rng(seed)
    snapshots = []
    for _ in range(num):
        a_to_b = max(0.0, rng.normal(100.0, 40.0))
        b_to_a = max(0.0, rng.normal(20.0, 10.0))
        snapshots.append(TrafficMatrix(PAIRS, [a_to_b, b_to_a]))
    return TrafficMatrixSeries(snapshots)


class TestFlowRecord:
    def test_rate_and_window_attribution(self):
        flow = FlowRecord(pair=PAIRS[0], start_time=0.0, end_time=600.0, total_bytes=600e6)
        assert flow.duration == 600.0
        assert flow.bytes_in_window(0.0, 300.0) == pytest.approx(300e6)
        assert flow.bytes_in_window(600.0, 900.0) == 0.0

    def test_invalid_records_rejected(self):
        with pytest.raises(MeasurementError):
            FlowRecord(pair=PAIRS[0], start_time=10.0, end_time=10.0, total_bytes=1.0)
        with pytest.raises(MeasurementError):
            FlowRecord(pair=PAIRS[0], start_time=0.0, end_time=10.0, total_bytes=-1.0)


class TestFlowDecomposition:
    def test_flows_conserve_total_volume(self):
        series = bursty_series()
        flows = flows_from_series(series, mean_flow_duration_seconds=1200.0, seed=1)
        total_flow_bytes = sum(f.total_bytes for f in flows)
        total_true_bytes = series.as_array().sum() * series.interval_seconds * 1e6 / 8.0
        assert total_flow_bytes == pytest.approx(total_true_bytes, rel=1e-6)

    def test_invalid_duration_rejected(self):
        with pytest.raises(MeasurementError):
            flows_from_series(bursty_series(), mean_flow_duration_seconds=0.0)


class TestAggregator:
    def test_reaggregation_preserves_means(self):
        series = bursty_series()
        smoothed = netflow_smoothed_series(series, mean_flow_duration_seconds=1800.0, seed=2)
        assert len(smoothed) == len(series)
        true_means = series.demand_means()
        smoothed_means = smoothed.demand_means()
        assert np.allclose(smoothed_means, true_means, rtol=0.05)

    def test_reaggregation_reduces_variance(self):
        """The paper's core argument: NetFlow averaging destroys within-flow variability."""
        series = bursty_series()
        smoothed = netflow_smoothed_series(series, mean_flow_duration_seconds=3600.0, seed=3)
        true_var = series.demand_variances()
        smoothed_var = smoothed.demand_variances()
        assert np.all(smoothed_var < true_var)
        assert smoothed_var.sum() < 0.7 * true_var.sum()

    def test_unknown_pair_rejected(self):
        aggregator = NetFlowAggregator(PAIRS[:1])
        flow = FlowRecord(pair=PAIRS[1], start_time=0.0, end_time=100.0, total_bytes=1.0)
        with pytest.raises(MeasurementError):
            aggregator.aggregate([flow], 0.0, 1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(MeasurementError):
            NetFlowAggregator(PAIRS, interval_seconds=0.0)
        with pytest.raises(MeasurementError):
            NetFlowAggregator(PAIRS).aggregate([], 0.0, 0)
