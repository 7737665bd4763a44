"""Crash-safe streaming estimation over live SNMP poll rounds.

The batch pipeline answers "what were the demands yesterday?"; this
package answers "what are they *now*, and keep answering while things
break".  :class:`~repro.streaming.stream.PollStream` lays the per-poller
poll matrices of a collector's edge counters out in counter order (the
links, then one ingress counter per origin and one egress counter per
destination; see :func:`~repro.measurement.collector.edge_counter_names`)
and hands them out one poll round at a time;
:class:`~repro.streaming.daemon.StreamingEstimator` consumes them,
deriving rates causally and estimating each interval with
one certified cold solve (the fallback chain answers a poll whose
certificate fails) while surviving poll loss, collector outages, solver
failures, routing churn and process crashes.  :mod:`~repro.streaming.checkpoint`
provides the versioned serialization of the daemon's state (format 6: one
file of a JSON header and the raw arrays, checked by CRC-32 on restore),
written by atomic replace, that makes a kill -9 followed by a restore
reproduce the uninterrupted run's records bit for bit.
"""

from repro.streaming.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    restore_daemon,
    save_checkpoint,
)
from repro.streaming.daemon import StreamingEstimator, StreamRecord
from repro.streaming.stream import CounterTracker, PollRound, PollStream

__all__ = [
    "CHECKPOINT_VERSION",
    "CounterTracker",
    "PollRound",
    "PollStream",
    "StreamRecord",
    "StreamingEstimator",
    "load_checkpoint",
    "restore_daemon",
    "save_checkpoint",
]
