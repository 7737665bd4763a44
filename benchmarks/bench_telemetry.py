"""Ledger tier ``telemetry``: disabled-telemetry overhead and a pooled trace.

Two measurements on ``large_scenario(100, seed=2004)``:

* **overhead** — the instrumented ``estimate`` entry points of tomogravity
  and entropy (auto-span wrapper and per-iteration flag checks, telemetry
  **disabled**) against their unwrapped implementations (``__wrapped__``),
  the closest in-process stand-in for code without telemetry.  Each
  method's overhead is the median of the ratios of 60 interleaved timing
  pairs.  The larger of the two overheads must stay within
  ``BENCH_PR9_MAX_OVERHEAD`` (default 0.02; shared CI runners set 0.05).
  The disabled ``span()`` and ``counter_inc()`` primitives are timed too;
* **trace** — a pooled method comparison with telemetry enabled, exported
  as a Chrome trace to ``BENCH_TRACE.json`` at the repository root; every
  worker's ``pool.task`` span must be re-parented under the parent's
  ``pool.run``.

Run it with ``python benchmarks/ledger.py telemetry``.
"""

from __future__ import annotations

import gc
import os
import time
from pathlib import Path
from statistics import median

N = 100
SEED = 2004
PAIRS = 60
TRACE_PATH = Path(__file__).resolve().parent.parent / "BENCH_TRACE.json"


def _paired_seconds(call_a, call_b, pairs: int) -> list[tuple[float, float]]:
    """Wall times ``(a, b)`` of two calls timed back to back, ``pairs`` times.

    A pair's two timings see the same state of a shared host (thermal,
    cache, noisy neighbours), so its ratio cancels the drift that moves
    whole timings by more than the overhead being measured; a median of
    many ratios then ignores the pairs a scheduler hiccup hit.  The call
    timed first after a collection runs slower, so the two take turns
    going first (``a`` in the even pairs) and every timing starts from its
    own ``gc.collect()``.
    """
    seconds = []
    for pair in range(pairs):
        order = ((0, call_a), (1, call_b)) if pair % 2 == 0 else ((1, call_b), (0, call_a))
        timed = [0.0, 0.0]
        for side, call in order:
            gc.collect()
            start = time.perf_counter()
            call()
            timed[side] = time.perf_counter() - start
        seconds.append((timed[0], timed[1]))
    return seconds


def overhead_metrics(problem) -> dict:
    """Disabled-telemetry overhead per method and per call of each primitive."""
    from repro import telemetry
    from repro.estimation.registry import get_estimator

    metrics = {}
    for name in ("tomogravity", "entropy"):
        estimator = get_estimator(name)
        unwrapped = type(estimator).estimate.__wrapped__
        estimator.estimate(problem)  # warm the shared workspace for both paths
        seconds = _paired_seconds(
            lambda: unwrapped(estimator, problem), lambda: estimator.estimate(problem), PAIRS
        )
        overheads = [disabled / baseline - 1.0 for baseline, disabled in seconds]
        metrics[f"{name}.baseline_s"] = (median(a for a, _ in seconds), "s")
        metrics[f"{name}.disabled_s"] = (median(b for _, b in seconds), "s")
        metrics[f"{name}.overhead"] = (median(overheads), "ratio")
        # Each order's pairs alone: how far timing one side first would
        # move the reading.
        metrics[f"{name}.overhead_baseline_first"] = (median(overheads[0::2]), "ratio")
        metrics[f"{name}.overhead_instrumented_first"] = (median(overheads[1::2]), "ratio")

    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        with telemetry.span("noop"):
            pass
    metrics["disabled_span_ns"] = ((time.perf_counter() - start) / calls * 1e9, "ns")
    start = time.perf_counter()
    for _ in range(calls):
        telemetry.counter_inc("noop")
    metrics["disabled_counter_ns"] = ((time.perf_counter() - start) / calls * 1e9, "ns")
    return metrics


def trace_metrics(scenario) -> tuple[dict, int, int]:
    """Export the Chrome trace of a pooled method comparison (telemetry enabled).

    Returns the metrics, the number of specs and the number of ``pool.task``
    spans re-parented under a ``pool.run`` span.
    """
    from repro import telemetry
    from repro.evaluation.experiments import MethodSpec, method_comparison

    specs = [
        MethodSpec(label="Gravity", estimator="gravity"),
        MethodSpec(label="Tomogravity", estimator="tomogravity"),
        MethodSpec(label="Kruithof", estimator="kruithof"),
    ]
    # effective_jobs() clamps the spec fan-out to the CPU count; pin it
    # so the exported trace crosses the pool even on single-CPU runners.
    real_cpu_count = os.cpu_count
    os.cpu_count = lambda: max(2, real_cpu_count() or 1)
    telemetry.enable()
    try:
        start = time.perf_counter()
        records = method_comparison(scenario, specs=specs, n_jobs=2)
        enabled_s = time.perf_counter() - start
        spans = telemetry.drain_spans()
        counters = telemetry.metrics_snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset_telemetry()
        os.cpu_count = real_cpu_count

    telemetry.export_chrome_trace(str(TRACE_PATH), spans)
    pool_runs = {s.span_id for s in spans if s.name == "pool.run"}
    tasks = [s for s in spans if s.name == "pool.task"]
    metrics = {
        "trace.enabled_s": (enabled_s, "s"),
        "trace.spans": (len(spans), "count"),
        "trace.pool_tasks": (len(tasks), "count"),
        "trace.solver_iterations": (counters.get("solver.iterations", 0.0), "count"),
        **{f"trace.mre.{record.method}": (record.mre, "ratio") for record in records},
    }
    return metrics, len(specs), sum(task.parent_id in pool_runs for task in tasks)


def measure() -> tuple[dict, dict, dict]:
    from repro.datasets import large_scenario

    max_overhead = float(os.environ.get("BENCH_PR9_MAX_OVERHEAD", "0.02"))
    scenario = large_scenario(N, seed=SEED)
    metrics = overhead_metrics(scenario.snapshot_problem())
    trace, num_specs, reparented = trace_metrics(scenario)
    metrics.update(trace)

    inputs = {
        "scenario": f"large_scenario({N}, seed={SEED})",
        "pairs": PAIRS,
        "max_overhead": max_overhead,
        "trace_file": TRACE_PATH.name,
    }
    worst = max(metrics[f"{name}.overhead"][0] for name in ("tomogravity", "entropy"))
    metrics["overhead_max"] = (worst, "ratio")
    checks = {
        "overhead_within_bound": worst <= max_overhead,
        "pool_tasks_reparented": reparented == metrics["trace.pool_tasks"][0] == num_specs,
    }
    return inputs, metrics, checks
