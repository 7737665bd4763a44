"""Acceptance benchmark: the large-topology fast path.

The estimation problem is quadratic in node count (``P = N (N - 1)``
pairs), yet until this engine the hot paths assumed the paper's <= 25-node
scale: routing ran one truncated Dijkstra **per pair**, and the
regularised estimators pulled the dense ``(links, pairs)`` routing view
even though the matrix was stored in CSR.  This benchmark measures the
fast path on random backbones of growing size:

* **routing build** — ``build_routing_matrix(network)`` (the csgraph
  next-hop walk assembled straight to CSR) timed at every ``N``; its
  path-for-path and fingerprint parity with per-pair ``shortest_path``
  queries is a tier-1 test
  (``tests/routing/test_batched_routing.py::TestBatchedEqualsPairwise``);
* **estimators** — per-method ``estimate`` wall time on a
  ``large_scenario`` snapshot problem at every ``N``;
* **memory** — a tracemalloc guard proving the sparse paths never
  materialise a dense routing-sized array (peak allocation stays under the
  dense ``(L, P)`` footprint).

The continental-scale tier (default N=500; N=1000 via ``BENCH_PR6_NS``
needs ~5 GB RSS) times the scenario build, checks the csgraph routing
kernel (``route_all``) route-for-route against per-origin python sweeps
(``single_source_shortest_paths``; exact digests), and
runs flat tomogravity on the CSR routing matrix: wall time, a tracemalloc
peak that must stay under the dense ``(links, pairs)`` routing footprint,
MRE against the synthetic truth, and the duality-gap certificate, which
must be within ``repro.optimize.dual.GAP_TOLERANCE``.  The first solve
also builds the routing matrix's link-Gram pattern, so a second solve on
the same problem is timed too: the first is what a one-shot solve pays,
the second what each later solve on that routing pays.  The results land
in ``BENCH_PR6.json``.  The telemetry tier measures the disabled-telemetry
overhead and exports the Chrome trace of a pooled method comparison.

Run directly (CI uses a single small N on shared runners)::

    PYTHONPATH=src python benchmarks/bench_large_scale.py
    PYTHONPATH=src BENCH_PR5_NS=50 python benchmarks/bench_large_scale.py
    PYTHONPATH=src BENCH_PR6_ONLY=1 python benchmarks/bench_large_scale.py
    PYTHONPATH=src BENCH_PR9_ONLY=1 python benchmarks/bench_large_scale.py
"""

from __future__ import annotations

import gc
import hashlib
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchrecord import REPO_ROOT, merge_record

RECORD_PATH = REPO_ROOT / "BENCH_PR5.json"
PR6_RECORD_PATH = REPO_ROOT / "BENCH_PR6.json"

SEED = 2004
ESTIMATORS = ("gravity", "kruithof", "tomogravity", "entropy", "bayesian")


def parse_ns() -> tuple[int, ...]:
    raw = os.environ.get("BENCH_PR5_NS", "50,100,200")
    return tuple(int(part) for part in raw.split(",") if part.strip())


def routing_benchmark(n_nodes: int) -> dict:
    from repro.routing.routing_matrix import build_routing_matrix
    from repro.topology.generators import random_backbone

    network = random_backbone(n_nodes, avg_degree=3.0, seed=SEED, name=f"bench-{n_nodes}")
    network.node_pairs()  # the network's cached pair index is not routing work
    start = time.perf_counter()
    matrix = build_routing_matrix(network)
    batched_seconds = time.perf_counter() - start
    return {
        "num_nodes": n_nodes,
        "num_links": network.num_links,
        "num_pairs": network.num_pairs,
        "density": matrix.density,
        "batched_seconds": batched_seconds,
    }


def estimator_benchmark(n_nodes: int, guard_memory: bool) -> dict:
    from repro.datasets import large_scenario
    from repro.estimation.registry import get_estimator

    scenario = large_scenario(n_nodes, seed=SEED)
    problem = scenario.snapshot_problem()
    num_pairs = scenario.routing.num_pairs
    # Every snapshot solve works in link space or with operator products,
    # so no intermediate may reach the dense routing footprint (the sign of
    # a densified R) at any N.
    memory_allowance = dense_bytes = float(scenario.routing.num_links * num_pairs * 8)
    timings: dict[str, float] = {}
    peak_bytes = 0.0
    for name in ESTIMATORS:
        estimator = get_estimator(name)
        if guard_memory:
            tracemalloc.start()
        start = time.perf_counter()
        estimator.estimate(problem)
        timings[name] = time.perf_counter() - start
        if guard_memory:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peak_bytes = max(peak_bytes, float(peak))
            assert peak < memory_allowance, (
                f"{name} allocated {peak / 1e6:.1f} MB at N={n_nodes}, above the "
                f"allowance {memory_allowance / 1e6:.1f} MB — a sparse path densified"
            )
    payload = {
        "num_pairs": scenario.routing.num_pairs,
        "estimate_seconds": timings,
    }
    if guard_memory:
        payload["dense_routing_bytes"] = dense_bytes
        payload["memory_allowance_bytes"] = memory_allowance
        payload["peak_estimator_bytes"] = peak_bytes
        payload["no_densification"] = True
    return payload


# ----------------------------------------------------------------------
# Continental-scale tier: flat tomogravity at N=500
# ----------------------------------------------------------------------


def parse_pr6_ns() -> tuple[int, ...]:
    raw = os.environ.get("BENCH_PR6_NS", "500")
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _route_digest(paths) -> str:
    """Exact digest of a route table (nodes, links and float costs)."""
    digest = hashlib.sha256()
    for pair in sorted(paths, key=lambda p: (p.origin, p.destination)):
        path = paths[pair]
        digest.update(
            repr(
                (pair.origin, pair.destination, path.nodes, path.link_names(), path.cost)
            ).encode()
        )
    return digest.hexdigest()


def _mre(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Mean relative error over the top-quartile demands (the paper's focus)."""
    mask = truth > np.percentile(truth, 75)
    return float(np.mean(np.abs(estimate[mask] - truth[mask]) / truth[mask]))


def sweep_paths(network) -> dict:
    """Routes from one python sweep per origin (``single_source_shortest_paths``)."""
    from repro.routing.shortest_path import Path, single_source_shortest_paths

    trees: dict = {}
    routed = {}
    for pair in network.node_pairs():
        if pair.origin not in trees:
            trees[pair.origin] = single_source_shortest_paths(
                network, pair.origin, lambda link: link.metric
            )
        nodes, links, cost = trees[pair.origin][pair.destination]
        routed[pair] = Path(pair=pair, nodes=nodes, links=links, cost=cost)
    return routed


def continental_benchmark(n_nodes: int) -> dict:
    from repro.datasets import large_scenario
    from repro.estimation.registry import get_estimator
    from repro.optimize.dual import GAP_TOLERANCE
    from repro.routing.shortest_path import ShortestPathRouter

    print(f"[continental] N={n_nodes}: building scenario ...")
    start = time.perf_counter()
    scenario = large_scenario(n_nodes, seed=SEED)
    build_seconds = time.perf_counter() - start
    problem = scenario.snapshot_problem()
    truth = scenario.busy_snapshot(0).vector
    num_pairs = problem.num_pairs
    num_links = problem.routing.num_links

    # csgraph kernel vs per-origin python sweeps on the same topology.
    # Each side is timed on a clean heap — keeping the first run's
    # quarter-million Path objects alive inflates GC pauses during the
    # second run — so the parity check compares exact route digests rather
    # than live tables.
    gc.collect()
    start = time.perf_counter()
    python_paths = sweep_paths(scenario.network)
    routing_python_seconds = time.perf_counter() - start
    python_digest = _route_digest(python_paths)
    del python_paths
    gc.collect()
    start = time.perf_counter()
    csgraph_paths = ShortestPathRouter(scenario.network).route_all()
    routing_csgraph_seconds = time.perf_counter() - start
    csgraph_digest = _route_digest(csgraph_paths)
    del csgraph_paths
    gc.collect()
    assert csgraph_digest == python_digest, "csgraph routes diverged from python sweep"

    # The flat solve works in link space, so no intermediate may reach the
    # dense (links, pairs) routing footprint.
    allowance = float(num_links * num_pairs * 8)
    print(f"[continental] N={n_nodes}: flat tomogravity ...")
    tracemalloc.start()
    start = time.perf_counter()
    result = get_estimator("tomogravity").estimate(problem)
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    diagnostics = result.diagnostics
    # The same solve again, untraced: it reuses the link-Gram pattern the
    # first solve built, so it is what each later solve on this routing pays.
    start = time.perf_counter()
    repeat = get_estimator("tomogravity").estimate(problem)
    repeat_seconds = time.perf_counter() - start
    assert np.array_equal(repeat.vector, result.vector), "repeat solve drifted"
    record = {
        "num_nodes": n_nodes,
        "num_links": num_links,
        "num_pairs": num_pairs,
        "scenario_build_seconds": build_seconds,
        "routing_python_seconds": routing_python_seconds,
        "routing_csgraph_seconds": routing_csgraph_seconds,
        "routing_csgraph_paths_identical": True,
        "dense_routing_bytes": allowance,
        "tomogravity_seconds": seconds,
        "tomogravity_repeat_seconds": repeat_seconds,
        "tomogravity_peak_bytes": float(peak),
        "tomogravity_mre": _mre(result.vector, truth),
        "tomogravity_iterations": int(diagnostics["iterations"]),
        "tomogravity_duality_gap": float(diagnostics["duality_gap"]),
        "tomogravity_converged": bool(diagnostics["converged"]),
    }
    print(
        f"[continental] N={n_nodes}: flat tomogravity {seconds:6.2f}s, "
        f"repeat {repeat_seconds:6.2f}s "
        f"(peak {peak / 1e6:.0f} MB, MRE {record['tomogravity_mre']:.3f}, "
        f"gap {record['tomogravity_duality_gap']:.1e})"
    )
    assert peak < allowance, (
        f"flat tomogravity allocated {peak / 1e6:.1f} MB at N={n_nodes}, above "
        f"the dense routing footprint {allowance / 1e6:.1f} MB"
    )
    assert (
        record["tomogravity_converged"]
        and record["tomogravity_duality_gap"] <= GAP_TOLERANCE
    ), (
        f"flat tomogravity at N={n_nodes} is uncertified: duality gap "
        f"{record['tomogravity_duality_gap']:.2e} (tolerance {GAP_TOLERANCE:.0e})"
    )
    return record


def main_pr6() -> dict:
    ns = parse_pr6_ns()
    records = [continental_benchmark(n_nodes) for n_nodes in ns]
    payload = {
        "seed": SEED,
        "ns": list(ns),
        "records": records,
        "cpu_count": os.cpu_count(),
    }
    merge_record(PR6_RECORD_PATH, "continental_scale", payload)
    print(f"[continental] OK (certified, no densification), recorded in {PR6_RECORD_PATH.name}")
    return payload


def main() -> dict:
    ns = parse_ns()
    max_n = max(ns)

    routing_records = []
    estimator_records = {}
    for n_nodes in ns:
        record = routing_benchmark(n_nodes)
        routing_records.append(record)
        print(f"[large scale] N={n_nodes}: routing build {record['batched_seconds']:6.3f}s")
        print(f"[large scale] N={n_nodes}: estimators ...")
        estimator_records[str(n_nodes)] = estimator_benchmark(
            n_nodes, guard_memory=n_nodes == max_n
        )
        for method, seconds in estimator_records[str(n_nodes)]["estimate_seconds"].items():
            print(f"[large scale]     {method:12s} {seconds:6.2f}s")

    payload = {
        "seed": SEED,
        "ns": list(ns),
        "routing_build": routing_records,
        "estimators": estimator_records,
        "cpu_count": os.cpu_count(),
    }
    merge_record(RECORD_PATH, "large_scale", payload)
    print(f"[large scale] OK (no densification), recorded in {RECORD_PATH.name}")
    return payload


# ----------------------------------------------------------------------
# PR 9 tier: telemetry overhead and trace export
# ----------------------------------------------------------------------

PR9_RECORD_PATH = REPO_ROOT / "BENCH_PR9.json"


def _min_seconds_paired(call_a, call_b, repeats: int) -> dict[str, tuple[float, float]]:
    """Min wall times of two calls measured interleaved, in alternating order.

    Interleaving keeps slow drift on a shared runner (thermal, cache, noisy
    neighbours) from biasing the A-vs-B ratio the way two separate timing
    blocks would.  The call timed first after a collection runs slower, so
    the two take turns going first and every timing starts from its own
    ``gc.collect()``.  Returns ``(min_a, min_b)`` per order: ``"a_first"``
    over the even repeats, ``"b_first"`` over the odd ones.
    """
    best = {"a_first": [float("inf")] * 2, "b_first": [float("inf")] * 2}
    for repeat in range(repeats):
        order = "a_first" if repeat % 2 == 0 else "b_first"
        sides = ((0, call_a), (1, call_b)) if order == "a_first" else ((1, call_b), (0, call_a))
        for side, call in sides:
            gc.collect()
            start = time.perf_counter()
            call()
            best[order][side] = min(best[order][side], time.perf_counter() - start)
    return {order: (a, b) for order, (a, b) in best.items()}


def telemetry_overhead_benchmark(n_nodes: int, repeats: int) -> dict:
    """Disabled-telemetry overhead on the N-node estimator tier.

    Compares the instrumented ``estimate`` entry points (auto-span
    wrapper + per-iteration flag checks, telemetry **disabled**) against
    the unwrapped implementations (``__wrapped__``), which is the closest
    in-process stand-in for the pre-telemetry code path.  Also
    microbenchmarks the disabled primitives themselves.
    """
    from repro import telemetry
    from repro.datasets import large_scenario
    from repro.estimation.registry import get_estimator

    assert not telemetry.is_enabled()
    scenario = large_scenario(n_nodes, seed=SEED)
    problem = scenario.snapshot_problem()

    methods = {}
    for name in ("tomogravity", "entropy"):
        estimator = get_estimator(name)
        wrapped = type(estimator).estimate
        unwrapped = wrapped.__wrapped__
        estimator.estimate(problem)  # warm the shared workspace for both paths
        by_order = _min_seconds_paired(
            lambda: unwrapped(estimator, problem),
            lambda: estimator.estimate(problem),
            repeats,
        )
        baseline = min(a for a, _ in by_order.values())
        disabled = min(b for _, b in by_order.values())
        methods[name] = {
            "baseline_seconds": baseline,
            "disabled_seconds": disabled,
            "overhead_ratio": (disabled - baseline) / baseline,
            # Each order's repeats alone: how far timing one side first
            # would move the reading.
            "overhead_ratio_by_order": {
                label: (b - a) / a
                for label, (a, b) in (
                    ("baseline_first", by_order["a_first"]),
                    ("instrumented_first", by_order["b_first"]),
                )
            },
        }

    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        with telemetry.span("noop"):
            pass
    span_ns = (time.perf_counter() - start) / calls * 1e9
    start = time.perf_counter()
    for _ in range(calls):
        telemetry.counter_inc("noop")
    counter_ns = (time.perf_counter() - start) / calls * 1e9

    return {
        "num_nodes": n_nodes,
        "repeats": repeats,
        "methods": methods,
        "max_overhead_ratio": max(m["overhead_ratio"] for m in methods.values()),
        "disabled_span_ns_per_call": span_ns,
        "disabled_counter_ns_per_call": counter_ns,
    }


def telemetry_trace_benchmark(n_nodes: int, trace_path: Path) -> dict:
    """Export a Chrome trace of a pooled N-node method comparison (telemetry enabled)."""
    from repro import telemetry
    from repro.datasets import large_scenario
    from repro.evaluation.experiments import MethodSpec, method_comparison

    scenario = large_scenario(n_nodes, seed=SEED)
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
        enabled_seconds = time.perf_counter() - start
        spans = telemetry.drain_spans()
        metrics = telemetry.metrics_snapshot()
    finally:
        telemetry.disable()
        telemetry.reset_telemetry()
        os.cpu_count = real_cpu_count

    telemetry.export_chrome_trace(str(trace_path), spans)
    pool_runs = {s.span_id for s in spans if s.name == "pool.run"}
    worker_tasks = [s for s in spans if s.name == "pool.task"]
    return {
        "num_nodes": n_nodes,
        "num_specs": len(specs),
        "mre": {record.method: record.mre for record in records},
        "enabled_seconds": enabled_seconds,
        "num_spans": len(spans),
        "num_pool_tasks": len(worker_tasks),
        "num_reparented_tasks": sum(task.parent_id in pool_runs for task in worker_tasks),
        "worker_pids": sorted({s.process for s in worker_tasks}),
        "solver_iterations": metrics["counters"].get("solver.iterations", 0.0),
        "trace_file": trace_path.name,
    }


def main_pr9() -> dict:
    n_nodes = int(os.environ.get("BENCH_PR9_N", "100"))
    repeats = int(os.environ.get("BENCH_PR9_REPEATS", "5"))
    max_overhead = float(os.environ.get("BENCH_PR9_MAX_OVERHEAD", "0.02"))
    trace_path = REPO_ROOT / f"TRACE_PR9_N{n_nodes}.json"

    print(f"[telemetry] N={n_nodes}: disabled-telemetry overhead ({repeats} repeats) ...")
    overhead = telemetry_overhead_benchmark(n_nodes, repeats)
    for method, timing in overhead["methods"].items():
        orders = timing["overhead_ratio_by_order"]
        print(
            f"[telemetry]     {method:12s} baseline {timing['baseline_seconds']:6.3f}s  "
            f"instrumented {timing['disabled_seconds']:6.3f}s  "
            f"overhead {timing['overhead_ratio'] * 100:+5.2f}% "
            f"(baseline first {orders['baseline_first'] * 100:+.2f}%, "
            f"instrumented first {orders['instrumented_first'] * 100:+.2f}%)"
        )
    print(
        f"[telemetry]     disabled span() {overhead['disabled_span_ns_per_call']:.0f} ns/call, "
        f"counter_inc() {overhead['disabled_counter_ns_per_call']:.0f} ns/call"
    )

    print(f"[telemetry] N={n_nodes}: pooled method-comparison trace (telemetry enabled) ...")
    trace = telemetry_trace_benchmark(n_nodes, trace_path)
    print(
        f"[telemetry]     {trace['num_spans']} spans "
        f"({trace['num_pool_tasks']} pool tasks across workers {trace['worker_pids']}), "
        f"{trace['solver_iterations']:.0f} solver iterations -> {trace_path.name}"
    )

    payload = {
        "seed": SEED,
        "max_overhead": max_overhead,
        "overhead": overhead,
        "trace": trace,
        "cpu_count": os.cpu_count(),
    }
    merge_record(PR9_RECORD_PATH, "telemetry", payload)

    assert overhead["max_overhead_ratio"] <= max_overhead, (
        f"disabled-telemetry overhead {overhead['max_overhead_ratio'] * 100:.2f}% "
        f"above the required {max_overhead * 100:.1f}%"
    )
    assert trace["num_reparented_tasks"] == trace["num_pool_tasks"] == trace["num_specs"], (
        f"trace holds {trace['num_pool_tasks']} pool tasks "
        f"({trace['num_reparented_tasks']} re-parented) for {trace['num_specs']} specs"
    )
    print(
        f"[telemetry] OK (disabled overhead <= {max_overhead * 100:.1f}%), "
        f"recorded in {PR9_RECORD_PATH.name}"
    )
    return payload


if __name__ == "__main__":
    if os.environ.get("BENCH_PR9_ONLY"):
        main_pr9()
    elif os.environ.get("BENCH_PR6_ONLY"):
        main_pr6()
    else:
        main()
        if not os.environ.get("BENCH_PR6_SKIP"):
            main_pr6()
        if not os.environ.get("BENCH_PR9_SKIP"):
            main_pr9()
