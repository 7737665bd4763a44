"""Ledger tier ``experiment-engine``: the robustness-grid experiment engine.

A robustness grid evaluates every registered estimation method on measured
(noisy) data for each ``(jitter, loss)`` combination.  The engine
(``robustness_sweep(n_jobs=...)``) runs each cell's methods as
``registry_specs`` rows through ``run_method_specs`` — one shared series
problem, every method's batched ``estimate_series`` — and fans independent
grid cells out over a process pool.

The tier times the grid serially and runs it again with ``n_jobs=2`` as a
check, not a speed (on a 2-CPU host the pool costs more than the six cells
it spreads): the two runs must return identical records.  Run it with
``python benchmarks/ledger.py experiment-engine``.
"""

from __future__ import annotations

import math
import time

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
    start = time.perf_counter()
    serial = robustness_sweep(scenario, n_jobs=1, **kwargs)
    serial_s = time.perf_counter() - start
    pooled = robustness_sweep(scenario, n_jobs=N_JOBS, **kwargs)

    inputs = {
        "scenario": "europe",
        "jitter_values": list(JITTER_VALUES),
        "loss_values": list(LOSS_VALUES),
        "methods": list(METHODS),
        "seed": SEED,
        "n_jobs": N_JOBS,
    }
    metrics = {"serial_s": (serial_s, "s"), "records": (len(serial), "count")}
    checks = {
        "pooled_records_equal_serial": len(serial) == len(pooled)
        and all(_same_record(a, b) for a, b in zip(serial, pooled)),
    }
    return inputs, metrics, checks
