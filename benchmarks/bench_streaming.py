"""Acceptance benchmark: per-poll streaming update latency at scale.

The batch pipeline gets a whole day of polls at once and can afford
seconds per solve; the streaming daemon sits inside a five-minute poll
loop and must finish each poll's estimate long before the next round
arrives.  This benchmark drives :class:`~repro.streaming.StreamingEstimator`
over a ``large_scenario`` backbone (default N=200, i.e. 39 800 demands)
and times every ``process_round`` call:

* **Kruithof path (gated)** — a ``kruithof`` daemon, one cold IPF on the
  two scaling vectors per poll, must complete its median per-poll update
  under the floor (15 ms on dedicated hardware; shared CI runners relax it
  via ``BENCH_PR10_MAX_POLL_MS``); it is recorded under ``warm_path``;
* **tomogravity (recorded)** — the default daemon method, timed for
  reference but ungated: its per-poll cost is dominated by the regularised
  solve, not the streaming machinery;
* **checkpoint round-trip (recorded, checked)** — the median of 20
  ``checkpoint`` calls, each replacing the previous checkpoint as every
  poll's save does, and of 20 ``restore`` calls, at full scale, since the
  crash-safety story is only practical if saving state is much cheaper
  than a poll interval.  The last poll round is held back from the timed
  rounds; after the cycle, untimed, the live and the last restored daemon
  each consume it, and their records must be the same line (exit 1
  otherwise).

Results land under the ``streaming`` key of ``BENCH_PR10.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_streaming.py
    PYTHONPATH=src BENCH_PR10_NS=100 BENCH_PR10_MAX_POLL_MS=30 \
        python benchmarks/bench_streaming.py
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchrecord import REPO_ROOT, merge_record

RECORD_PATH = REPO_ROOT / "BENCH_PR10.json"

SEED = 2010
#: Timed poll rounds per method (after the priming round).
ROUNDS = 8
#: Timed checkpoint saves and restores (the record keeps their medians).
CHECKPOINT_REPEATS = 20


def build_stream(num_nodes: int):
    from repro.datasets import large_scenario
    from repro.measurement.collector import DistributedCollector
    from repro.streaming import PollStream

    scenario = large_scenario(num_nodes, seed=SEED, num_samples=ROUNDS + 2)
    collector = DistributedCollector(
        scenario.routing,
        num_pollers=2,
        jitter_std_seconds=0.0,
        loss_probability=0.0,
        seed=SEED,
    )
    stream = PollStream.from_collector(collector, scenario.day_series)
    return scenario, collector, stream


def time_daemon(scenario, collector, stream, method: str) -> dict:
    from repro.streaming import StreamingEstimator

    daemon = StreamingEstimator.from_collector(collector, method=method)
    per_poll_ms = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # The final round is held back for the restore check.
        for index in range(stream.num_rounds - 1):
            poll_round = stream.round(index)
            start = time.perf_counter()
            record = daemon.process_round(poll_round, stream)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            if record is not None:  # the priming round emits nothing
                per_poll_ms.append(elapsed_ms)
    return {
        "method": method,
        "rounds": len(per_poll_ms),
        "per_poll_ms_median": float(np.median(per_poll_ms)),
        "per_poll_ms_mean": float(np.mean(per_poll_ms)),
        "per_poll_ms_max": float(np.max(per_poll_ms)),
    }, daemon


def _median_ms(action, repeats: int = CHECKPOINT_REPEATS):
    """Median milliseconds of ``repeats`` calls of ``action`` and its last result."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = action()
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples)), result


def time_checkpoint(daemon, routing, stream) -> dict:
    """Time saves and restores, then check the restored daemon's next record.

    Every timed save replaces the previous checkpoint, as each poll's save
    does; the first save, which creates the file, is not timed.
    """
    import tempfile

    from repro.streaming import StreamingEstimator

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "bench.ckpt")
        daemon.checkpoint(path)
        save_ms, _ = _median_ms(lambda: daemon.checkpoint(path))
        size_bytes = os.path.getsize(path)
        restore_ms, restored = _median_ms(lambda: StreamingEstimator.restore(path, routing))
    final = stream.round(stream.num_rounds - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        live_line = daemon.process_round(final, stream).payload_line()
        restored_line = restored.process_round(final, stream).payload_line()
    return {
        "save_ms": float(save_ms),
        "restore_ms": float(restore_ms),
        "size_bytes": int(size_bytes),
        "restore_identical": live_line == restored_line,
    }


def main() -> int:
    num_nodes = int(os.environ.get("BENCH_PR10_NS", "200"))
    max_poll_ms = float(os.environ.get("BENCH_PR10_MAX_POLL_MS", "15"))

    print(f"building N={num_nodes} stream ({num_nodes * (num_nodes - 1)} demands)")
    scenario, collector, stream = build_stream(num_nodes)
    print(
        f"  {len(scenario.routing.link_names)} links, "
        f"{stream.num_rounds} poll rounds"
    )

    kruithof, kruithof_daemon = time_daemon(scenario, collector, stream, "kruithof")
    print(
        f"Kruithof path:         median {kruithof['per_poll_ms_median']:.1f} ms/poll "
        f"(max {kruithof['per_poll_ms_max']:.1f} ms) over {kruithof['rounds']} rounds"
    )

    reference, _ = time_daemon(scenario, collector, stream, "tomogravity")
    print(
        f"tomogravity reference: median {reference['per_poll_ms_median']:.1f} ms/poll "
        f"(max {reference['per_poll_ms_max']:.1f} ms)"
    )

    checkpoint = time_checkpoint(kruithof_daemon, scenario.routing, stream)
    print(
        f"checkpoint round-trip (medians of {CHECKPOINT_REPEATS}): "
        f"save {checkpoint['save_ms']:.1f} ms, restore {checkpoint['restore_ms']:.1f} ms "
        f"({checkpoint['size_bytes'] / 1e6:.2f} MB); next record "
        + ("identical" if checkpoint["restore_identical"] else "DIFFERS")
    )

    payload = {
        "num_nodes": num_nodes,
        "num_pairs": num_nodes * (num_nodes - 1),
        "num_links": len(scenario.routing.link_names),
        "max_poll_ms_floor": max_poll_ms,
        "warm_path": kruithof,
        "tomogravity_reference": reference,
        "checkpoint": checkpoint,
    }
    merge_record(RECORD_PATH, "streaming", payload)
    print(f"record written to {RECORD_PATH}")

    if not checkpoint["restore_identical"]:
        print("FAIL: the restored daemon's next record differs from the live daemon's")
        return 1
    if kruithof["per_poll_ms_median"] >= max_poll_ms:
        print(
            f"FAIL: Kruithof per-poll median {kruithof['per_poll_ms_median']:.1f} ms "
            f">= {max_poll_ms:.0f} ms floor"
        )
        return 1
    print(
        f"OK: Kruithof per-poll median {kruithof['per_poll_ms_median']:.1f} ms "
        f"< {max_poll_ms:.0f} ms floor"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
