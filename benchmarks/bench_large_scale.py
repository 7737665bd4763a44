"""Ledger tier ``large-scale``: the sparse paths at continental scale (N=500).

The estimation problem is quadratic in node count (``P = N (N - 1)``
pairs): at N=500 the dense ``(links, pairs)`` routing view would take
2,994 MB, so every hot path has to stay on the CSR routing matrix.  On
``large_scenario(500, seed=2004)`` the tier

* times the scenario build;
* checks the csgraph routing kernel (``route_all``) route for route
  against per-origin python sweeps (``single_source_shortest_paths``) by
  exact digests, timing both;
* runs gravity, Kruithof, tomogravity, entropy and Bayesian on the
  snapshot problem, each timed under a tracemalloc guard: no solve may
  allocate the dense routing footprint (the sign of a densified routing
  matrix).  Tomogravity is the first regularised solve, so its time and
  peak include building the routing matrix's link-Gram pattern;
* requires tomogravity's duality-gap certificate
  (``repro.optimize.dual.GAP_TOLERANCE``) and times a second tomogravity
  solve, untraced: it reuses the pattern, so it is what each later solve
  on this routing pays, and it must return the same vector.

Smaller N is timed by perfbench's ``cold-n120`` and ``stream-n200``
workloads.  Run the tier with ``python benchmarks/ledger.py large-scale``
(~0.5 GB RSS).
"""

from __future__ import annotations

import gc
import hashlib
import time
import tracemalloc

import numpy as np

N = 500
SEED = 2004
ESTIMATORS = ("gravity", "kruithof", "tomogravity", "entropy", "bayesian")


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


def _timed_digest(route) -> tuple[str, float]:
    """Digest and seconds of one route table, built on a clean heap.

    Keeping one run's quarter-million ``Path`` objects alive inflates GC
    pauses during the next, so each table is digested and dropped.
    """
    gc.collect()
    start = time.perf_counter()
    paths = route()
    seconds = time.perf_counter() - start
    digest = _route_digest(paths)
    del paths
    gc.collect()
    return digest, seconds


def measure() -> tuple[dict, dict, dict]:
    from repro.datasets import large_scenario
    from repro.estimation.registry import get_estimator
    from repro.optimize.dual import GAP_TOLERANCE
    from repro.routing.shortest_path import ShortestPathRouter

    start = time.perf_counter()
    scenario = large_scenario(N, seed=SEED)
    build_s = time.perf_counter() - start
    problem = scenario.snapshot_problem()
    truth = scenario.busy_snapshot(0).vector
    dense_bytes = float(problem.routing.num_links * problem.num_pairs * 8)

    python_digest, python_s = _timed_digest(lambda: sweep_paths(scenario.network))
    csgraph_digest, csgraph_s = _timed_digest(ShortestPathRouter(scenario.network).route_all)

    metrics = {
        "scenario_build_s": (build_s, "s"),
        "routing.python_s": (python_s, "s"),
        "routing.csgraph_s": (csgraph_s, "s"),
        "dense_routing_mb": (dense_bytes / 1e6, "MB"),
    }
    peaks = {}
    results = {}
    for name in ESTIMATORS:
        tracemalloc.start()
        start = time.perf_counter()
        results[name] = get_estimator(name).estimate(problem)
        metrics[f"{name}.s"] = (time.perf_counter() - start, "s")
        peaks[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        metrics[f"{name}.peak_mb"] = (peaks[name] / 1e6, "MB")
    start = time.perf_counter()
    repeat = get_estimator("tomogravity").estimate(problem)
    metrics["tomogravity.repeat_s"] = (time.perf_counter() - start, "s")

    tomogravity = results["tomogravity"]
    gap = float(tomogravity.diagnostics["duality_gap"])
    metrics["tomogravity.duality_gap"] = (gap, "ratio")
    metrics["tomogravity.iterations"] = (tomogravity.diagnostics["iterations"], "count")
    metrics["tomogravity.mre"] = (_mre(tomogravity.vector, truth), "ratio")

    inputs = {
        "scenario": f"large_scenario({N}, seed={SEED})",
        "nodes": N,
        "links": problem.routing.num_links,
        "pairs": problem.num_pairs,
        "estimators": list(ESTIMATORS),
        "gap_tolerance": GAP_TOLERANCE,
    }
    checks = {
        "csgraph_routes_equal_python_sweep": csgraph_digest == python_digest,
        "tomogravity_repeat_identical": np.array_equal(repeat.vector, tomogravity.vector),
        "tomogravity_certified": bool(tomogravity.diagnostics["converged"])
        and gap <= GAP_TOLERANCE,
        **{f"{name}_peak_below_dense": peaks[name] < dense_bytes for name in ESTIMATORS},
    }
    return inputs, metrics, checks
