"""Ledger tier ``experiment-engine``: the robustness-grid experiment engine.

A robustness grid evaluates every registered estimation method on measured
(noisy) data for each ``(jitter, loss)`` combination.  The engine
(``robustness_sweep(n_jobs=...)``) runs each cell's methods as
``registry_specs`` rows through ``run_method_specs`` — one shared series
problem, every method's batched ``estimate_series`` — and fans independent
grid cells out over a process pool.

The tier runs the grid serially once untimed, so first-call work (imports,
workspace and factor caches) stays out of the timing, then reports
``serial_s`` as the median of three timed serial grids.  It runs the grid
again with ``n_jobs=2`` as a check, not a speed (on a 2-CPU host the pool
costs more than the six cells it spreads): the pooled records must equal
the serial ones.  Run it with ``python benchmarks/ledger.py
experiment-engine``.
"""

from __future__ import annotations

import math
import time
from statistics import median

JITTER_VALUES = (0.0, 2.0, 10.0)
LOSS_VALUES = (0.0, 0.02)
METHODS = (
    "gravity",
    "kruithof",
    "bayesian",
    "entropy",
    "tomogravity",
    "vardi",
    "fanout",
    "cao",
    "worst-case-bounds",
)
SEED = 0
N_JOBS = 2
TIMED_GRIDS = 3


def _same_record(a, b) -> bool:
    """Two robustness records agree field for field (NaN MREs match NaN).

    ``failure`` compares by value: exception type, message, spec and stage.
    """
    return (
        (a.scenario, a.method, a.jitter_std_seconds, a.loss_probability, a.failure)
        == (b.scenario, b.method, b.jitter_std_seconds, b.loss_probability, b.failure)
        and ((math.isnan(a.mre) and math.isnan(b.mre)) or a.mre == b.mre)
    )


def measure() -> tuple[dict, dict, dict]:
    from repro.datasets import europe_scenario
    from repro.evaluation.experiments import robustness_sweep

    scenario = europe_scenario()
    kwargs = dict(jitter_values=JITTER_VALUES, loss_values=LOSS_VALUES, methods=METHODS, seed=SEED)
    serial = robustness_sweep(scenario, n_jobs=1, **kwargs)  # warm-up, untimed
    timings = []
    for _ in range(TIMED_GRIDS):
        start = time.perf_counter()
        robustness_sweep(scenario, n_jobs=1, **kwargs)
        timings.append(time.perf_counter() - start)
    pooled = robustness_sweep(scenario, n_jobs=N_JOBS, **kwargs)

    inputs = {
        "scenario": "europe",
        "jitter_values": list(JITTER_VALUES),
        "loss_values": list(LOSS_VALUES),
        "methods": list(METHODS),
        "seed": SEED,
        "n_jobs": N_JOBS,
        "timed_grids": TIMED_GRIDS,
    }
    metrics = {"serial_s": (median(timings), "s"), "records": (len(serial), "count")}
    checks = {
        "pooled_records_equal_serial": len(serial) == len(pooled)
        and all(_same_record(a, b) for a, b in zip(serial, pooled)),
    }
    return inputs, metrics, checks
