"""Measurement substrate: link loads, SNMP polling, collection, NetFlow emulation.

* :mod:`~repro.measurement.linkloads` — the consistent ``t = R s`` link-load
  computation the paper's evaluation data set is built on;
* :mod:`~repro.measurement.snmp` — array-valued counter polling with jitter
  and UDP loss, and the interval-length rate adjustment;
* :mod:`~repro.measurement.collector` — distributed pollers feeding one
  object-major rate array, reconstructing the measured LSP traffic matrix
  and link loads;
* :mod:`~repro.measurement.netflow` — NetFlow-style flow aggregation used to
  demonstrate why flow-averaged data loses within-flow variance.
"""

from repro.measurement.collector import DistributedCollector, counter_names
from repro.measurement.linkloads import link_load_series
from repro.measurement.netflow import (
    FlowRecord,
    NetFlowAggregator,
    flows_from_series,
    netflow_smoothed_series,
)
from repro.measurement.snmp import (
    PollMatrix,
    RateDiagnostics,
    SNMPPoller,
    rates_from_poll_matrix,
)

__all__ = [
    "link_load_series",
    "PollMatrix",
    "RateDiagnostics",
    "SNMPPoller",
    "rates_from_poll_matrix",
    "DistributedCollector",
    "counter_names",
    "FlowRecord",
    "flows_from_series",
    "NetFlowAggregator",
    "netflow_smoothed_series",
]
