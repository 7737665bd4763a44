"""Ledger tier ``streaming``: per-poll streaming update latency at scale.

The batch pipeline gets a whole day of polls at once and can afford
seconds per solve; the streaming daemon sits inside a five-minute poll
loop and must finish each poll's estimate long before the next round
arrives.  The tier drives :class:`~repro.streaming.StreamingEstimator`
over ``large_scenario(200, seed=2010)`` (39,800 demands) and times every
``process_round`` call:

* **Kruithof (checked)** — one cold IPF on the two scaling vectors per
  poll; its median per-poll update must stay under 15 ms;
* **tomogravity (recorded)** — the default daemon method, timed for
  reference: its per-poll cost is dominated by the regularised solve, not
  the streaming machinery;
* **checkpoint round-trip (recorded, checked)** — the median of 20
  ``checkpoint`` calls, each replacing the previous checkpoint as every
  poll's save does, and of 20 ``restore`` calls.  The last poll round is
  held back from the timed rounds; after the cycle, untimed, the live and
  the last restored Kruithof daemon each consume it, and their records
  must be the same line.

Run it with ``python benchmarks/ledger.py streaming``.
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings

import numpy as np

N = 200
SEED = 2010
#: Timed polls per method.  The stream has two more rounds: the first
#: primes the counters, the last is held back for the restore check.
TIMED_POLLS = 9
#: Timed checkpoint saves and restores (the metrics are their medians).
CHECKPOINT_REPEATS = 20
MAX_POLL_MS = 15.0


def time_daemon(collector, stream, method: str):
    """Per-poll milliseconds of a daemon over every round but the last, and the daemon."""
    from repro.streaming import StreamingEstimator

    daemon = StreamingEstimator.from_collector(collector, method=method)
    per_poll_ms = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for index in range(stream.num_rounds - 1):
            poll_round = stream.round(index)
            start = time.perf_counter()
            record = daemon.process_round(poll_round, stream)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            if record is not None:  # the priming round emits nothing
                per_poll_ms.append(elapsed_ms)
    return np.array(per_poll_ms), daemon


def _median_ms(action):
    """Median milliseconds of ``CHECKPOINT_REPEATS`` calls of ``action`` and its last result."""
    samples = []
    for _ in range(CHECKPOINT_REPEATS):
        start = time.perf_counter()
        result = action()
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples)), result


def measure() -> tuple[dict, dict, dict]:
    from repro.datasets import large_scenario
    from repro.measurement.collector import DistributedCollector
    from repro.streaming import PollStream, StreamingEstimator

    # K samples are K intervals, so K + 1 poll rounds.
    scenario = large_scenario(N, seed=SEED, num_samples=TIMED_POLLS + 1)
    collector = DistributedCollector(
        scenario.routing,
        num_pollers=2,
        jitter_std_seconds=0.0,
        loss_probability=0.0,
        seed=SEED,
    )
    stream = PollStream.from_collector(collector, scenario.day_series)
    metrics = {}
    for method in ("kruithof", "tomogravity"):
        per_poll_ms, daemon = time_daemon(collector, stream, method)
        metrics[f"{method}.poll_ms_median"] = (np.median(per_poll_ms), "ms")
        metrics[f"{method}.poll_ms_mean"] = (per_poll_ms.mean(), "ms")
        metrics[f"{method}.poll_ms_max"] = (per_poll_ms.max(), "ms")
        if method == "kruithof":
            kruithof = daemon

    # Every timed save replaces the previous checkpoint, as each poll's save
    # does; the first save, which creates the file, is not timed.
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "bench.ckpt")
        kruithof.checkpoint(path)
        metrics["checkpoint.save_ms"] = (_median_ms(lambda: kruithof.checkpoint(path))[0], "ms")
        metrics["checkpoint.bytes"] = (os.path.getsize(path), "B")
        restore_ms, restored = _median_ms(
            lambda: StreamingEstimator.restore(path, scenario.routing)
        )
        metrics["checkpoint.restore_ms"] = (restore_ms, "ms")
    final = stream.round(stream.num_rounds - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        live_line = kruithof.process_round(final, stream).payload_line()
        restored_line = restored.process_round(final, stream).payload_line()

    inputs = {
        "scenario": f"large_scenario({N}, seed={SEED}, num_samples={TIMED_POLLS + 1})",
        "links": scenario.routing.num_links,
        "pairs": scenario.routing.num_pairs,
        "pollers": 2,
        "timed_polls": TIMED_POLLS,
        "checkpoint_repeats": CHECKPOINT_REPEATS,
        "max_poll_ms": MAX_POLL_MS,
    }
    checks = {
        "restored_next_record_identical": live_line == restored_line,
        "kruithof_poll_median_below_bound": metrics["kruithof.poll_ms_median"][0] < MAX_POLL_MS,
    }
    return inputs, metrics, checks
