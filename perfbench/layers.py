"""Per-layer metrics of the traced run.

The traced run turns ``repro.telemetry`` on and wraps each call into a
layer's public function in a span the benchmark owns.  Calls the benchmark
makes itself carry their spans in ``workloads.py``; calls made inside the
scenario constructors and the streaming daemon are wrapped here, by swapping the
names those modules call for span-wrapped versions for the length of a
``with layer_spans():`` block.  The program's own spans (``routing.route_all``,
the estimator auto-spans, ``stream.poll``/``update``/``watchdog``/
``checkpoint``) nest inside, and every number below is read from
``telemetry.summary_table()``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro import telemetry

#: Methods with ``estimate.<key>.s/.iterations/.converged`` metrics.
ESTIMATE_KEYS = (
    "gravity",
    "tomogravity",
    "bayesian",
    "worst-case-bounds",
    "entropy",
    "bayes-wcb",
    "fanout",
    "vardi",
)

#: Method key -> suffix of its ``mre.<suffix>`` metric.
MRE_NAMES = {
    "worst-case-bounds": "wcb",
    "entropy": "entropy",
    "bayes-wcb": "bayes_wcb",
    "fanout": "fanout",
    "vardi": "vardi",
    "gravity": "gravity",
    "bayesian": "bayesian",
    "tomogravity": "tomogravity",
    "kruithof": "kruithof",
}

#: Every per-layer metric as ``(name, unit, better)``; the traced run reports all.
PER_LAYER = (
    [
        ("topology.build_s", "s", "lower"),
        ("traffic.generate_s", "s", "lower"),
        ("routing.build_s", "s", "lower"),
        ("routing.route_all_s", "s", "lower"),
        ("measurement.collect_s", "s", "lower"),
    ]
    + [
        metric
        for key in ESTIMATE_KEYS
        for metric in (
            (f"estimate.{key}.s", "s", "lower"),
            (f"estimate.{key}.iterations", "count", "lower"),
            (f"estimate.{key}.converged", "share", "higher"),
        )
    ]
    + [
        ("traffic.wrap_ms", "ms", "lower"),
        ("problem.build_s", "s", "lower"),
        ("evaluation.mre_s", "s", "lower"),
        ("stream.poll_ms_p50", "ms", "lower"),
        ("stream.poll_ms_p95", "ms", "lower"),
        ("stream.poll_self_ms", "ms", "lower"),
        ("stream.update_ms", "ms", "lower"),
        ("stream.checkpoint_ms", "ms", "lower"),
        ("stream.checkpoint_bytes", "B", "lower"),
        ("stream.restore_ms", "ms", "lower"),
        ("stream.watchdog_ms", "ms", "lower"),
        ("stream.watchdog_checks", "count", "lower"),
        ("stream.watchdog_resolves", "count", "lower"),
        ("stream.degraded_updates", "count", "lower"),
        ("stream.stale_polls", "count", "lower"),
    ]
    + [(f"mre.{suffix}", "ratio", "lower") for suffix in MRE_NAMES.values()]
    + [("telemetry.trace_overhead", "ratio", "lower")]
)


def _spanned(function: Any, span_name: str) -> Any:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with telemetry.span(span_name):
            return function(*args, **kwargs)

    return wrapper


def _targets() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span)`` for calls made inside the program."""
    from repro.datasets import backbone
    from repro.streaming import daemon
    from repro.traffic.synthetic import SyntheticTrafficModel

    return [
        (backbone, "american_backbone", "topology.build"),
        (backbone, "random_backbone", "topology.build"),
        (backbone, "base_demand_matrix", "traffic.generate"),
        (SyntheticTrafficModel, "generate_day", "traffic.generate"),
        (SyntheticTrafficModel, "generate_series", "traffic.generate"),
        (backbone, "build_routing_matrix", "routing.build"),
        (daemon, "EstimationProblem", "problem.build"),
    ]


@contextmanager
def layer_spans() -> Iterator[None]:
    """Wrap the calls listed in :func:`_targets` in benchmark spans for the block.

    A name the program no longer has is skipped, so its metric reads 0
    instead of the run failing.
    """
    saved = []
    try:
        for owner, attribute, span_name in _targets():
            original = getattr(owner, attribute, None)
            if original is None:
                continue
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _spanned(original, span_name))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def is_priming_poll(record: telemetry.SpanRecord) -> bool:
    """The first round of a stream only primes counters; it is not a poll op."""
    return record.name == "stream.poll" and record.attributes.get("round") == 0


def span_metrics(table: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics read from a ``summary_table()``."""

    def total(label: str) -> float:
        return table.get(label, {}).get("total_seconds", 0.0)

    def mean(label: str) -> float:
        return table.get(label, {}).get("mean_seconds", 0.0)

    def self_mean(label: str) -> float:
        row = table.get(label)
        return row["self_seconds"] / row["count"] if row else 0.0

    metrics = {
        # Set-up runs once in the traced run, so totals are per set-up.
        "topology.build_s": total("topology.build"),
        "traffic.generate_s": total("traffic.generate"),
        "routing.build_s": total("routing.build"),
        "routing.route_all_s": total("routing.route_all"),
        "measurement.collect_s": total("measurement.collect"),
        "traffic.wrap_ms": mean("bench.wrap") * 1e3,
        "problem.build_s": mean("problem.build"),
        "evaluation.mre_s": mean("bench.mre"),
        "stream.poll_self_ms": self_mean("stream.poll") * 1e3,
        "stream.update_ms": mean("stream.update") * 1e3,
        "stream.checkpoint_ms": mean("stream.checkpoint") * 1e3,
        "stream.watchdog_ms": mean("stream.watchdog") * 1e3,
    }
    for key in ESTIMATE_KEYS:
        metrics[f"estimate.{key}.s"] = mean(f"bench.estimate[{key}]")
    return metrics
