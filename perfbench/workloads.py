"""The benchmark's three workloads: set-up, one timed pass, output checks.

Every workload is generated from a seed and runs in this process with no
worker pool.  A *pass* is one run of the workload's ops after set-up; the
runner in ``run.py`` repeats passes, times set-up separately, and asks the
workload to check its outputs once the passes are done.

* ``table2-america`` — every ``default_method_specs()`` row of the paper's
  Table 2 on ``america_scenario(seed)``; one op per row.
* ``cold-n120`` — cold snapshot estimates of gravity, tomogravity and
  Bayesian on ``large_scenario(120, seed)``; one op per method.
* ``stream-n200`` — a Kruithof ``StreamingEstimator`` over a clean 2-poller
  ``PollStream`` on ``large_scenario(200, seed)``, run as a closed loop; one
  op is ``process_round`` plus ``checkpoint``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from accounting import Tally, failure_reason, min_samples_for
from repro import telemetry
from repro.datasets import america_scenario, large_scenario
from repro.estimation import get_estimator
from repro.evaluation.experiments import default_method_specs, method_comparison
from repro.evaluation.metrics import mean_relative_error
from repro.measurement.collector import DistributedCollector
from repro.streaming import PollStream, StreamingEstimator
from repro.traffic.matrix import TrafficMatrix

#: Poll latency is reported at p50 and p95; p95 needs this many polls per run.
POLL_TAIL_PERCENTILE = 95.0


@dataclass
class PassOutcome:
    """What one timed pass produced."""

    seconds: float
    op_ms: list[float]
    #: Method key -> MRE (batch workloads score inside each op; the stream
    #: scores the first pass only, outside the timed loop).
    mre: dict[str, float] = field(default_factory=dict)
    #: Method key -> (iterations, converged) read from ``result.diagnostics``.
    diagnostics: dict[str, tuple[int, bool]] = field(default_factory=dict)
    #: Method key -> seconds of its op (batch workloads).
    op_seconds: dict[str, float] = field(default_factory=dict)
    #: Method key -> estimate vector (batch workloads).
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    #: Hash of every estimate of the pass, to check passes agree bit for bit.
    digest: str = ""
    #: Stream only: the live daemon after the pass, and its public counters.
    daemon: Any = None
    counters: dict[str, float] = field(default_factory=dict)


def _digest(vectors) -> str:
    sha = hashlib.sha256()
    for vector in vectors:
        sha.update(np.ascontiguousarray(vector, dtype=float).tobytes())
    return sha.hexdigest()


def _diagnostics(result) -> tuple[int, bool]:
    iterations = result.diagnostics.get("iterations")
    converged = result.diagnostics.get("converged")
    return (
        0 if iterations is None else int(iterations),
        True if converged is None else bool(converged),
    )


def _run_op(
    key: str, method: str, params: dict, problem, truth, tally: Tally, outcome: PassOutcome
) -> None:
    """One estimate op: construct, estimate, score; failures are tallied."""
    start = time.perf_counter()
    try:
        with telemetry.span("bench.estimate", method=key):
            result = get_estimator(method, **params).estimate(problem)
        with telemetry.span("bench.mre"):
            mre = mean_relative_error(result.estimate, truth)
    except Exception as exc:  # one failing op must not stop the table
        traceback.print_exc(file=sys.stderr)
        tally.add(key, failure_reason(error=exc))
        return
    elapsed = time.perf_counter() - start
    outcome.op_ms.append(elapsed * 1e3)
    outcome.op_seconds[key] = elapsed
    tally.add(key, failure_reason(result))
    outcome.mre[key] = mre
    outcome.diagnostics[key] = _diagnostics(result)
    outcome.vectors[key] = result.vector


def _fresh(problem):
    """The same problem with empty workspace caches, so no pass reuses another's priors."""
    return dataclasses.replace(problem)


def _pause(between_ops) -> float:
    """Run ``between_ops`` (if any) and return how long it took."""
    if between_ops is None:
        return 0.0
    start = time.perf_counter()
    between_ops()
    return time.perf_counter() - start


def instance_seeds(seed: int, count: int) -> list[int]:
    """``seed`` itself, then ``count - 1`` scenario seeds derived from it.

    The derived seeds are hashed, not consecutive, so runs with neighbouring
    seeds never share a scenario.
    """
    derived = np.random.SeedSequence(seed).generate_state(count - 1) if count > 1 else []
    return [seed] + [int(value) % 2**31 for value in derived]


def _same_digests(passes: list[PassOutcome]) -> list[str]:
    if len({outcome.digest for outcome in passes}) > 1:
        return ["passes over the same inputs produced different estimates"]
    return []


class Workload:
    """Base of the three workloads (see the module docstring)."""

    name = ""
    default_seed = 0
    #: Ops a traced run must time before it may stop (the stream's tail percentile).
    min_ops = 0
    #: Scenarios an untraced run builds from its seed (see :func:`instance_seeds`);
    #: the end-to-end metrics average over them, so one scenario's solver
    #: iteration counts do not set a run's figures.
    instances = 1

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run_pass(
        self, inputs: Any, tally: Tally, score: bool, between_ops: Optional[Any] = None
    ) -> PassOutcome:
        """One timed pass.  ``between_ops`` is called between two ops, untimed."""
        raise NotImplementedError

    def check(self, inputs: Any, passes: list[PassOutcome]) -> tuple[list[str], dict[str, float]]:
        """Check outputs; returns ``(problems, measures)``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# table2-america
# ----------------------------------------------------------------------

#: Table 2 row label -> method key used in metric names.
TABLE2_KEYS = {
    "Worst-case bound prior": "worst-case-bounds",
    "Simple gravity prior": "gravity",
    "Entropy w. gravity prior": "entropy",
    "Bayes w. gravity prior": "bayesian",
    "Bayes w. WCB prior": "bayes-wcb",
    "Fanout": "fanout",
    "Vardi": "vardi",
}

#: Table 2 MREs on ``america_scenario(2004)``, in ``default_method_specs`` order.
SEED_2004_TABLE2 = (0.519, 0.758, 0.467, 0.579, 0.387, 0.490, 0.891)


@dataclass
class Table2Inputs:
    seed: int
    scenario: Any
    specs: tuple
    #: ``None`` (snapshot) or a series window -> (problem, truth).
    problems: dict[Optional[int], tuple[Any, TrafficMatrix]]


class Table2America(Workload):
    name = "table2-america"
    default_seed = 2004
    instances = 2

    @staticmethod
    def _window(spec, busy_length: int) -> Optional[int]:
        if spec.data == "snapshot":
            return None
        return min(spec.window or busy_length, busy_length)

    def setup(self, seed: int) -> Table2Inputs:
        scenario = america_scenario(seed)
        busy = scenario.busy_length
        # The same clamps method_comparison applies.
        specs = default_method_specs(fanout_window=min(10, busy), vardi_window=min(50, busy))
        problems: dict[Optional[int], tuple[Any, TrafficMatrix]] = {}
        for spec in specs:
            window = self._window(spec, busy)
            if window in problems:
                continue
            with telemetry.span("problem.build"):
                if window is None:
                    problem = scenario.snapshot_problem()
                else:
                    problem = scenario.series_problem(window_length=window)
            truth = (
                scenario.busy_mean_matrix()
                if window is None
                else scenario.busy_series().window(0, window).mean_matrix()
            )
            problems[window] = (problem, truth)
        return Table2Inputs(seed, scenario, specs, problems)

    def run_pass(
        self, inputs: Table2Inputs, tally: Tally, score: bool, between_ops=None
    ) -> PassOutcome:
        problems = {
            window: (_fresh(problem), truth) for window, (problem, truth) in inputs.problems.items()
        }
        outcome = PassOutcome(seconds=0.0, op_ms=[])
        by_label: dict[str, str] = {}
        paused = 0.0
        start = time.perf_counter()
        for index, spec in enumerate(inputs.specs):
            if index:
                paused += _pause(between_ops)
            key = TABLE2_KEYS.get(spec.label, spec.estimator)
            by_label[spec.label] = key
            params = dict(spec.params)
            if spec.prior_from is not None:
                prior = outcome.vectors.get(by_label.get(spec.prior_from, ""))
                if prior is None:
                    tally.add(key, failure_reason(skipped=True))
                    continue
                params["prior"] = prior
            problem, truth = problems[self._window(spec, inputs.scenario.busy_length)]
            _run_op(key, spec.estimator, params, problem, truth, tally, outcome)
        outcome.seconds = time.perf_counter() - start - paused
        outcome.digest = _digest(outcome.vectors.values())
        return outcome

    def check(self, inputs: Table2Inputs, passes: list[PassOutcome]):
        problems = _same_digests(passes)
        reference = {
            TABLE2_KEYS.get(record.method, record.method): record.mre
            for record in method_comparison(inputs.scenario)
        }
        measured = passes[0].mre
        for key, expected in reference.items():
            if not math.isclose(measured.get(key, math.nan), expected, rel_tol=1e-9):
                problems.append(
                    f"{key}: MRE {measured.get(key)} differs from method_comparison's {expected}"
                )
        if inputs.seed == 2004:
            for spec, expected in zip(inputs.specs, SEED_2004_TABLE2):
                key = TABLE2_KEYS.get(spec.label, spec.estimator)
                if round(measured.get(key, math.nan), 3) != expected:
                    problems.append(f"{key}: seed-2004 MRE {measured.get(key)} is not {expected}")
        return problems, {}


# ----------------------------------------------------------------------
# cold-n120
# ----------------------------------------------------------------------

COLD_NODES = 120
COLD_METHODS = ("gravity", "tomogravity", "bayesian")


@dataclass
class ColdInputs:
    scenario: Any
    problem: Any
    truth: TrafficMatrix


class ColdN120(Workload):
    name = "cold-n120"
    default_seed = 2004
    instances = 4

    def setup(self, seed: int) -> ColdInputs:
        scenario = large_scenario(COLD_NODES, seed)
        with telemetry.span("problem.build"):
            problem = scenario.snapshot_problem()
        return ColdInputs(scenario, problem, scenario.busy_mean_matrix())

    def run_pass(
        self, inputs: ColdInputs, tally: Tally, score: bool, between_ops=None
    ) -> PassOutcome:
        problem = _fresh(inputs.problem)
        outcome = PassOutcome(seconds=0.0, op_ms=[])
        paused = 0.0
        start = time.perf_counter()
        for index, method in enumerate(COLD_METHODS):
            if index:
                paused += _pause(between_ops)
            _run_op(method, method, {}, problem, inputs.truth, tally, outcome)
        outcome.seconds = time.perf_counter() - start - paused
        outcome.digest = _digest(outcome.vectors.values())
        return outcome

    def check(self, inputs: ColdInputs, passes: list[PassOutcome]):
        problems = _same_digests(passes)
        vectors = passes[0].vectors
        if "gravity" in vectors and "tomogravity" in vectors:
            routing, loads = inputs.problem.routing, inputs.problem.link_loads
            misfit = {
                key: float(np.linalg.norm(routing.link_loads(vectors[key]) - loads))
                for key in ("gravity", "tomogravity")
            }
            if misfit["tomogravity"] > misfit["gravity"]:
                problems.append(
                    f"tomogravity fits the link loads worse than its gravity prior "
                    f"({misfit['tomogravity']:.4g} > {misfit['gravity']:.4g})"
                )
        return problems, {}


# ----------------------------------------------------------------------
# stream-n200
# ----------------------------------------------------------------------

STREAM_NODES = 200
STREAM_METHOD = "kruithof"
#: Public daemon counters reported per pass.
STREAM_COUNTERS = ("watchdog_checks", "watchdog_resolves", "degraded_updates", "stale_polls")


@dataclass
class StreamInputs:
    scenario: Any
    collector: Any
    stream: Any
    rounds: list
    checkpoint_path: str
    #: The daemon built during set-up; the first pass consumes it.
    daemon: Any = None


class StreamN200(Workload):
    name = "stream-n200"
    default_seed = 2010
    min_ops = min_samples_for(POLL_TAIL_PERCENTILE)
    instances = 1

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir

    def setup(self, seed: int) -> StreamInputs:
        scenario = large_scenario(STREAM_NODES, seed)
        with telemetry.span("measurement.collect"):
            collector = DistributedCollector(
                scenario.routing,
                num_pollers=2,
                jitter_std_seconds=0.0,
                loss_probability=0.0,
                seed=seed,
            )
            stream = PollStream.from_collector(collector, scenario.day_series)
        rounds = [stream.round(index) for index in range(stream.num_rounds)]
        path = os.path.join(self.out_dir, f"{self.name}.ckpt")
        return StreamInputs(
            scenario, collector, stream, rounds, path, daemon=self._daemon(collector)
        )

    @staticmethod
    def _daemon(collector) -> StreamingEstimator:
        return StreamingEstimator.from_collector(collector, method=STREAM_METHOD)

    def run_pass(
        self, inputs: StreamInputs, tally: Tally, score: bool, between_ops=None
    ) -> PassOutcome:
        """One pass over the stream; polls are too short to pause between."""
        daemon = inputs.daemon if inputs.daemon is not None else self._daemon(inputs.collector)
        inputs.daemon = None
        stream, path = inputs.stream, inputs.checkpoint_path
        outcome = PassOutcome(seconds=0.0, op_ms=[], daemon=daemon)
        records = []
        start = time.perf_counter()
        daemon.process_round(inputs.rounds[0], stream)  # primes the counters
        # The final round is held back for the restore check.
        for poll_round in inputs.rounds[1:-1]:
            op_start = time.perf_counter()
            try:
                record = daemon.process_round(poll_round, stream)
                daemon.checkpoint(path)
            except Exception as exc:  # one failing poll must not stop the stream
                traceback.print_exc(file=sys.stderr)
                tally.add(STREAM_METHOD, failure_reason(error=exc))
                continue
            outcome.op_ms.append((time.perf_counter() - op_start) * 1e3)
            tally.add(STREAM_METHOD, failure_reason(record=record))
            records.append(record)
        outcome.seconds = time.perf_counter() - start
        outcome.digest = _digest(record.estimate for record in records)
        outcome.counters = {name: float(getattr(daemon, name)) for name in STREAM_COUNTERS}
        if score:
            pairs = inputs.scenario.routing.pairs
            errors = []
            for record in records:
                estimate = TrafficMatrix(pairs, record.estimate)
                with telemetry.span("bench.mre"):
                    errors.append(
                        mean_relative_error(estimate, inputs.scenario.day_series[record.sequence])
                    )
            outcome.mre[STREAM_METHOD] = float(np.mean(errors))
        return outcome

    def check(self, inputs: StreamInputs, passes: list[PassOutcome]):
        problems = _same_digests(passes)
        expected_ops = len(inputs.rounds) - 2
        if any(len(outcome.op_ms) != expected_ops for outcome in passes):
            problems.append(f"a pass did not complete all {expected_ops} polls")
        live = passes[-1].daemon
        start = time.perf_counter()
        restored = StreamingEstimator.restore(inputs.checkpoint_path, inputs.scenario.routing)
        restore_ms = (time.perf_counter() - start) * 1e3
        final = inputs.rounds[-1]
        live_line = live.process_round(final, inputs.stream).payload_line()
        restored_line = restored.process_round(final, inputs.stream).payload_line()
        if live_line != restored_line:
            problems.append("the restored daemon's record differs from the live daemon's")
        return problems, {
            "stream.restore_ms": restore_ms,
            "stream.checkpoint_bytes": float(os.path.getsize(inputs.checkpoint_path)),
        }
