"""Streaming estimation daemon with a kill -9 crash drill.

The batch pipeline estimates yesterday's traffic matrix; this example runs
the :class:`~repro.streaming.StreamingEstimator` the way an operator
would: polls arrive one round at a time through a seeded fault plan
(loss bursts, a collector outage, a counter reset, clock skew), every
per-interval estimate is appended to a JSONL record log, and the daemon
checkpoints its full state after each record.

Three modes:

* default — consume the whole stream, print a summary;
* ``--kill-after N`` — after emitting record ``N``, the process SIGKILLs
  *itself* (a real ``kill -9``, no cleanup handlers run).  Restart with
  ``--resume`` to continue from the last checkpoint;
* ``--drill`` — run all three phases (uninterrupted run, killed run,
  resumed run) and verify that the merged record log of the crashed
  lineage is **bit-identical** to the uninterrupted one.  Exits non-zero
  on any mismatch; this is what the CI soak job runs.

Re-run with a different ``CHAOS_SEED`` environment value for a fresh —
but equally reproducible — fault stream.

Run with::

    python examples/streaming_daemon.py --drill
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import warnings

from repro.datasets import small_scenario
from repro.measurement.collector import DistributedCollector
from repro.resilience import (
    ClockSkew,
    CollectorOutage,
    CounterReset,
    PollLossBurst,
    fault_plan,
)
from repro.streaming import PollStream, StreamingEstimator


def build_pieces(seed: int, num_samples: int):
    """Scenario, fault plan and a collector factory, all seeded."""
    scenario = small_scenario(seed=7, num_nodes=6, busy_length=8, num_samples=num_samples)
    plan = fault_plan(
        PollLossBurst(start_round=3, num_rounds=2, fraction=0.7),
        CounterReset(round_index=9),
        ClockSkew(offset_seconds=20.0, start_round=5),
        CollectorOutage(poller_index=0, start_round=6, num_rounds=2),
        seed=seed,
    )

    def make_collector() -> DistributedCollector:
        return DistributedCollector(
            scenario.routing,
            num_pollers=2,
            loss_probability=0.02,
            seed=seed,
            fault_plan=plan,
        )

    return scenario, plan, make_collector


def run_daemon(args) -> None:
    """Consume the stream, appending records and checkpointing as we go."""
    scenario, plan, make_collector = build_pieces(args.seed, args.samples)
    stream = PollStream.from_collector(make_collector(), scenario.day_series)

    if args.resume:
        daemon = StreamingEstimator.restore(args.checkpoint, scenario.routing)
        mode = f"resumed from round {daemon.rounds_seen}"
        log = open(args.records, "a")
    else:
        daemon = StreamingEstimator.from_collector(
            make_collector(),
            method="tomogravity",
            min_valid_fraction=0.5,
        )
        mode = "fresh"
        log = open(args.records, "w")

    if not args.quiet:
        print(f"streaming daemon ({mode}); fault plan: {plan.describe()}")
    with log:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for record in daemon.run(stream):
                log.write(record.payload_line() + "\n")
                log.flush()
                daemon.checkpoint(args.checkpoint)
                if not args.quiet:
                    flags = []
                    if record.stale:
                        flags.append(f"STALE x{record.stale_intervals}")
                    if record.degraded:
                        flags.append("DEGRADED")
                    print(
                        f"  [{record.sequence:03d}] t={record.timestamp:7.0f}s "
                        f"epoch={record.epoch} method={record.method:<12} "
                        f"valid={record.valid_fraction:4.0%} "
                        + (" ".join(flags) if flags else "ok")
                    )
                if args.kill_after is not None and record.sequence == args.kill_after:
                    # A genuine kill -9: no atexit, no finally blocks.
                    os.kill(os.getpid(), signal.SIGKILL)
    if not args.quiet:
        print(
            f"done: {daemon.sequence} records, {daemon.stale_polls} stale, "
            f"{daemon.degraded_updates} degraded, "
            f"{daemon.watchdog_checks} certificates read "
            f"({daemon.watchdog_resolves} breaches answered by the fallbacks)"
        )


def merged_sequences(path: str) -> list[str]:
    """Record lines deduplicated by sequence (first write wins), in order."""
    lines: dict[int, str] = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            sequence = json.loads(line)["sequence"]
            lines.setdefault(sequence, line)
    return [lines[key] for key in sorted(lines)]


def run_drill(args) -> int:
    """Uninterrupted vs killed-and-resumed run; records must be identical."""
    base_cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--seed",
        str(args.seed),
        "--samples",
        str(args.samples),
        "--quiet",
    ]
    with tempfile.TemporaryDirectory() as workdir:
        full = os.path.join(workdir, "full.jsonl")
        crashed = os.path.join(workdir, "crashed.jsonl")
        ckpt_full = os.path.join(workdir, "full.ckpt")
        ckpt_crashed = os.path.join(workdir, "crashed.ckpt")

        print(f"phase 1: uninterrupted run (CHAOS_SEED={args.seed})")
        subprocess.run(
            base_cmd + ["--records", full, "--checkpoint", ckpt_full], check=True
        )

        kill_at = args.kill_after
        print(f"phase 2: run killed with SIGKILL after record {kill_at}")
        killed = subprocess.run(
            base_cmd
            + [
                "--records",
                crashed,
                "--checkpoint",
                ckpt_crashed,
                "--kill-after",
                str(kill_at),
            ]
        )
        if killed.returncode != -signal.SIGKILL:
            print(f"FAIL: expected SIGKILL exit, got {killed.returncode}")
            return 1

        print("phase 3: resume from the last checkpoint")
        subprocess.run(
            base_cmd
            + ["--records", crashed, "--checkpoint", ckpt_crashed, "--resume"],
            check=True,
        )

        full_lines = merged_sequences(full)
        crash_lines = merged_sequences(crashed)
        if full_lines == crash_lines:
            print(
                f"OK: {len(crash_lines)} records from the crashed lineage are "
                "bit-identical to the uninterrupted run"
            )
            return 0
        print("FAIL: record logs differ")
        for index, (a, b) in enumerate(zip(full_lines, crash_lines)):
            if a != b:
                print(f"  first difference at record {index}:")
                print(f"    full:    {a[:120]}")
                print(f"    crashed: {b[:120]}")
                break
        if len(full_lines) != len(crash_lines):
            print(f"  lengths differ: {len(full_lines)} vs {len(crash_lines)}")
        return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", default="streaming_records.jsonl")
    parser.add_argument("--checkpoint", default="streaming.ckpt")
    parser.add_argument("--seed", type=int, default=int(os.environ.get("CHAOS_SEED", "0")))
    parser.add_argument("--samples", type=int, default=16)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--kill-after", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--drill", action="store_true")
    args = parser.parse_args()
    if args.drill:
        if args.kill_after is None:
            args.kill_after = args.samples // 3
        return run_drill(args)
    run_daemon(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
