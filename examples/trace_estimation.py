"""Tracing an estimation run with repro.telemetry.

This example turns telemetry on, runs the hierarchical sharded estimator
over a mid-size synthetic backbone (fanning the region shards over a
process pool when more than one CPU is available), and then shows the
three ways out of the collected trace:

1. the per-stage summary rollup (``format_summary``) — count, total,
   mean, max and *self* time per stage, straight to the terminal;
2. a Chrome trace-event file (``trace_estimation.json``) — open it at
   ``chrome://tracing`` or https://ui.perfetto.dev to see the parent
   process and every pool worker on one wall-clock timeline, with the
   worker spans re-parented under the submitting ``pool.run`` span;
3. a JSONL span dump (``trace_estimation_spans.jsonl``) — one JSON
   object per span, for ad-hoc analysis.

It also prints the metrics registry: solver iterations (counted at the
``budget_tick`` call sites inside the dual-Newton/QP/IPF loops), IPF
sweeps, workspace cache hits and the pool queue-wait/execute histograms.

Run with::

    python examples/trace_estimation.py
"""

from __future__ import annotations

import os

from repro import telemetry
from repro.datasets import large_scenario
from repro.estimation import get_estimator


def main() -> None:
    n_jobs = min(4, os.cpu_count() or 1)
    print("Building a 60-PoP synthetic backbone (3540 demands)...")
    scenario = large_scenario(num_nodes=60, seed=1, busy_length=8, num_samples=16)
    problem = scenario.snapshot_problem()

    print(f"Tracing a sharded tomogravity estimate (n_jobs={n_jobs})...")
    telemetry.enable()
    estimator = get_estimator(
        "sharded", base="tomogravity", num_regions=4, n_jobs=n_jobs
    )
    result = estimator.estimate(problem)
    telemetry.disable()

    print(
        f"  estimate done: {result.diagnostics['num_shards']} shards over "
        f"{result.diagnostics['num_regions']} regions"
    )

    print("\nWhere did the seconds go?\n")
    print(telemetry.format_summary())

    snapshot = telemetry.metrics_snapshot()
    print("\nCounters:")
    for name, value in sorted(snapshot["counters"].items()):
        print(f"  {name:<28} {value:>10.0f}")
    if snapshot["histograms"]:
        print("Histograms (mean / p95 / max):")
        for name, stats in sorted(snapshot["histograms"].items()):
            print(
                f"  {name:<28} {stats['mean']:.4f} / {stats['p95']:.4f} / "
                f"{stats['max']:.4f}  (n={stats['count']:.0f})"
            )

    spans = telemetry.export_chrome_trace("trace_estimation.json")
    telemetry.export_spans_jsonl("trace_estimation_spans.jsonl")
    print(
        f"\nWrote {spans} spans to trace_estimation.json "
        "(open in chrome://tracing or https://ui.perfetto.dev) "
        "and trace_estimation_spans.jsonl"
    )


if __name__ == "__main__":
    main()
