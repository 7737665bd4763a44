"""The repository benchmark: Table 2 on America, cold N=120 solves, the streaming daemon.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table2-america --seed 2004 --seconds 20 --trace 0

``--workload`` is one of ``table2-america``, ``cold-n120`` and
``stream-n200`` (see ``workloads.py``).  An untraced run builds several
scenarios from ``--seed`` (``setup_s`` is their median set-up), repeats
passes of the workload's ops on each for an equal share of at least
``--seconds`` seconds, checks the outputs and prints a readable report
followed by one JSON line::

    {"correct": true, "attempted": 6, "failed": 2, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``peak_rss_mb``, ``mre_mean``).  With ``--trace 1`` the run sets
up once with telemetry on, times untraced passes, then traced passes, and
reports the per-layer metrics of ``layers.py``; it also writes a Chrome
trace and the per-layer numbers to ``perfbench/out/``.

Everything runs in this process on one BLAS thread, with no worker pool.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: One BLAS thread: solver iteration counts stay reproducible, and a busy
#: machine slows the run instead of stalling spinning BLAS threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Each scenario is set up again until this long has passed; ``setup_s`` is
#: the median of all set-ups, so a quick set-up is timed many times.
SETUP_MIN_SECONDS = 2.0
#: ``TrafficMatrix`` builds timed for ``traffic.wrap_ms``.
WRAP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "mre_mean": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("table2-america", "cold-n120", "stream-n200")
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: 2004, or 2010 for stream-n200)",
    )
    parser.add_argument("--seconds", type=float, default=10.0, help="minimum measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str):
    from workloads import ColdN120, StreamN200, Table2America

    if name == "stream-n200":
        return StreamN200(str(OUT))
    return {"table2-america": Table2America, "cold-n120": ColdN120}[name]()


def measure(workload, inputs, seconds: float, tally, clock) -> list:
    """Passes until ``seconds`` have elapsed; the host clock samples between ops and passes."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(
            workload.run_pass(inputs, tally, score=not passes, between_ops=clock.sample)
        )
        clock.sample()
        if time.perf_counter() - start >= seconds:
            return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_pass_seconds(passes) -> float:
    return statistics.median(outcome.seconds for outcome in passes)


def untraced_run(workload, seed: int, seconds: float, tally):
    """Set-up and pass times, peak memory and accuracy over the run's scenarios, tracing off.

    Each of the workload's ``instances`` scenarios is set up (timed, repeated
    for at least ``SETUP_MIN_SECONDS``), gets an equal share of ``seconds``,
    and is checked before the next one is built.  ``setup_s`` is the median
    of all set-ups and ``wall_s`` the mean over scenarios of the median pass,
    both in reference seconds (the host clock of ``calibrate.py`` samples its
    kernel between steps); ``mre_mean`` is the mean over scenarios of the
    first pass's mean MRE.
    """
    from accounting import min_samples_for, tail_percentile
    from calibrate import REFERENCE_SECONDS, HostClock
    from layers import MRE_NAMES
    from workloads import POLL_TAIL_PERCENTILE, instance_seeds

    seeds = instance_seeds(seed, workload.instances)
    share = seconds / len(seeds)
    clock = HostClock()
    setup_times, pass_medians, mre_means, polls = [], [], [], []
    report, problems = [], []
    passes_run = 0
    for scenario_seed in seeds:
        setup_start = time.perf_counter()
        while True:
            inputs = None
            gc.collect()
            start = time.perf_counter()
            inputs = workload.setup(scenario_seed)
            setup_times.append(time.perf_counter() - start)
            clock.sample()
            if time.perf_counter() - setup_start >= SETUP_MIN_SECONDS:
                break
        passes = measure(workload, inputs, share, tally, clock)
        found, _ = workload.check(inputs, passes)
        mre = passes[0].mre
        if mre:
            mre_means.append(statistics.fmean(mre.values()))
        else:
            found.append("no op of the first pass produced a scored estimate")
        problems += [f"seed {scenario_seed}: {problem}" for problem in found]
        pass_medians.append(median_pass_seconds(passes))
        passes_run += len(passes)
        polls += [ms for outcome in passes for ms in outcome.op_ms]
        report.append(
            f"seed {scenario_seed}: passes "
            f"{', '.join(f'{outcome.seconds:.3f}' for outcome in passes)} s"
        )
        report += [
            f"  op {key}: {', '.join(f'{p.op_seconds[key]:.3f}' for p in passes)} s"
            for key in passes[0].op_seconds
        ]
        report += [f"  mre.{MRE_NAMES[key]}: {value:.4f}" for key, value in mre.items()]
        del inputs, passes
    scale = clock.scale()
    metrics = {
        "setup_s": statistics.median(setup_times) * scale,
        "wall_s": statistics.fmean(pass_medians) * scale,
        "peak_rss_mb": peak_rss_mb(),
        "mre_mean": statistics.fmean(mre_means) if mre_means else 0.0,
    }
    report.append(f"set-ups: {', '.join(f'{value:.3f}' for value in setup_times)} s")
    report.append(
        f"host kernel: {', '.join(f'{value * 1e3:.1f}' for value in clock.samples)} ms, "
        f"reference {REFERENCE_SECONDS * 1e3:.1f} ms: measured times x {scale:.4f}"
    )
    report.append(f"measured_setup_s: {statistics.median(setup_times):.6g}")
    report.append(f"measured_wall_s: {statistics.fmean(pass_medians):.6g}")
    if workload.min_ops:
        report.append(f"poll_ms_p50: {statistics.median(polls):.2f} ms over {len(polls)} polls")
    if workload.min_ops and len(polls) >= min_samples_for(POLL_TAIL_PERCENTILE):
        report.append(
            f"poll_ms_p95: {tail_percentile(polls, POLL_TAIL_PERCENTILE):.2f} ms"
        )
    return metrics, passes_run, report, problems


def traced_run(workload, seed: int, seconds: float, tally):
    """Per-layer metrics: set-up traced once, then untraced and traced passes."""
    import numpy as np

    from accounting import tail_percentile
    from layers import MRE_NAMES, ESTIMATE_KEYS, is_priming_poll, layer_spans, span_metrics
    from repro import telemetry
    from repro.traffic.matrix import TrafficMatrix
    from workloads import POLL_TAIL_PERCENTILE, STREAM_COUNTERS

    telemetry.reset_telemetry()
    telemetry.enable()
    with layer_spans():
        inputs = workload.setup(seed)
    # Untraced and traced passes alternate, so drift in machine speed lands
    # on both sides of telemetry.trace_overhead.
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        telemetry.disable()
        untraced.append(workload.run_pass(inputs, tally, score=not untraced))
        telemetry.enable()
        with layer_spans():
            traced.append(workload.run_pass(inputs, tally, score=not traced))
        timed_ops = sum(len(outcome.op_ms) for outcome in untraced)
        if time.perf_counter() - start >= seconds and timed_ops >= workload.min_ops:
            break
    pairs = inputs.scenario.routing.pairs
    vector = np.ones(len(pairs))
    for _ in range(WRAP_REPEATS):
        with telemetry.span("bench.wrap"):
            TrafficMatrix(pairs, vector)
    telemetry.disable()
    problems, measures = workload.check(inputs, untraced + traced)

    spans = [record for record in telemetry.collected_spans() if not is_priming_poll(record)]
    table = telemetry.summary_table(spans)
    metrics = span_metrics(table)
    last = traced[-1]
    for key in ESTIMATE_KEYS:
        iterations, converged = last.diagnostics.get(key, (0, False))
        metrics[f"estimate.{key}.iterations"] = float(iterations)
        metrics[f"estimate.{key}.converged"] = float(converged)
    mre = untraced[0].mre
    for key, suffix in MRE_NAMES.items():
        metrics[f"mre.{suffix}"] = mre.get(key, 0.0)
    polls = [ms for outcome in untraced for ms in outcome.op_ms]
    streaming = workload.min_ops > 0
    metrics["stream.poll_ms_p50"] = statistics.median(polls) if streaming else 0.0
    metrics["stream.poll_ms_p95"] = (
        tail_percentile(polls, POLL_TAIL_PERCENTILE) if streaming else 0.0
    )
    for counter in STREAM_COUNTERS:
        metrics[f"stream.{counter}"] = last.counters.get(counter, 0.0)
    metrics["stream.checkpoint_bytes"] = measures.get("stream.checkpoint_bytes", 0.0)
    metrics["stream.restore_ms"] = measures.get("stream.restore_ms", 0.0)
    metrics["telemetry.trace_overhead"] = (
        median_pass_seconds(traced) / median_pass_seconds(untraced) - 1.0
    )

    stem = OUT / f"{workload.name}-{seed}"
    telemetry.export_chrome_trace(f"{stem}.trace.json", spans)
    with open(f"{stem}.layers.json", "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, "summary_table": table}, handle, indent=1, sort_keys=True)
    report = [
        f"untraced passes: {', '.join(f'{outcome.seconds:.3f}' for outcome in untraced)} s",
        f"traced passes: {', '.join(f'{outcome.seconds:.3f}' for outcome in traced)} s",
        f"chrome trace: {stem}.trace.json",
        telemetry.format_summary(table),
    ]
    return metrics, len(untraced) + len(traced), report, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    from accounting import Tally
    from layers import PER_LAYER

    workload = make_workload(args.workload)
    seed = workload.default_seed if args.seed is None else args.seed
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    if args.trace:
        metrics, passes, report, problems = traced_run(workload, seed, args.seconds, tally)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, passes, report, problems = untraced_run(workload, seed, args.seconds, tally)
        units = END_TO_END_UNITS

    print(f"workload {workload.name}, seed {seed}, {passes} passes, trace {args.trace}")
    for line in report:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name}: {value:.6g} {units[name]}")
    for problem in problems:
        tally.fail("check", problem)
    print(f"  ops: {tally.attempted} attempted, {tally.failed} failed")
    for reason, count in sorted(tally.reasons.items()):
        print(f"    {count} x {reason}")
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": min(tally.failed, tally.attempted),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
