"""Lightweight metrics registry: counters, gauges and histograms.

Metrics complement spans: a span tells *where time went* in one run, a
metric aggregates *how often / how much* across the whole process —
solver iterations, IPF sweeps, shared-workspace cache hits, pool
queue-wait versus execute time, supervisor retries and fallbacks.

Every recording helper checks the shared enabled flag first and returns
immediately when telemetry is off, so instrumented hot loops pay one
attribute read per call.  Histograms keep raw observations (the counts
involved here are small — per-task waits, per-stage residuals), which
keeps cross-process merging exact: workers ship their raw registry with
:func:`drain_metrics` and the parent folds it in with
:func:`merge_metrics`, so serial and pooled runs aggregate identically.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, Optional

from repro.telemetry.spans import _STATE, current_span

__all__ = [
    "counter_inc",
    "gauge_set",
    "histogram_observe",
    "record_iterations",
    "metrics_snapshot",
    "drain_metrics",
    "merge_metrics",
    "reset_metrics",
]

_LOCK = threading.Lock()
_COUNTERS: dict[str, float] = {}
_GAUGES: dict[str, float] = {}
_HISTOGRAMS: dict[str, list[float]] = {}


def counter_inc(name: str, value: float = 1.0) -> None:
    """Add ``value`` to the monotonically increasing counter ``name``."""
    if not _STATE.enabled:
        return
    with _LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0.0) + value


def gauge_set(name: str, value: float) -> None:
    """Set the last-value gauge ``name``."""
    if not _STATE.enabled:
        return
    with _LOCK:
        _GAUGES[name] = float(value)


def histogram_observe(name: str, value: float) -> None:
    """Record one observation into the histogram ``name``."""
    if not _STATE.enabled:
        return
    with _LOCK:
        _HISTOGRAMS.setdefault(name, []).append(float(value))


def record_iterations(count: int = 1) -> None:
    """Count solver-loop iterations (ridden by ``budget_tick`` call sites).

    Besides the global ``solver.iterations`` counter, the ticks are
    attributed to the innermost open span so a trace shows how many
    iterations each ``estimate`` (or pool task) burned.
    """
    if not _STATE.enabled:
        return
    with _LOCK:
        _COUNTERS["solver.iterations"] = _COUNTERS.get("solver.iterations", 0.0) + count
    active = current_span()
    if active is not None:
        active.attributes["ticks"] = int(active.attributes.get("ticks", 0)) + count


def _histogram_stats(values: list[float]) -> dict[str, float]:
    ordered = sorted(values)
    count = len(ordered)
    return {
        "count": float(count),
        "sum": float(sum(ordered)),
        "mean": float(sum(ordered) / count),
        "min": ordered[0],
        "max": ordered[-1],
        "p50": ordered[int(0.50 * (count - 1))],
        "p95": ordered[int(0.95 * (count - 1))],
    }


def metrics_snapshot() -> dict[str, Any]:
    """Aggregated view: counters/gauges verbatim, histograms as stats."""
    with _LOCK:
        counters = dict(_COUNTERS)
        gauges = dict(_GAUGES)
        histograms = {name: list(values) for name, values in _HISTOGRAMS.items()}
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": {
            name: _histogram_stats(values) for name, values in histograms.items() if values
        },
    }


def drain_metrics() -> dict[str, Any]:
    """Raw registry contents, clearing them — the cross-process wire format."""
    with _LOCK:
        raw = {
            "counters": dict(_COUNTERS),
            "gauges": dict(_GAUGES),
            "histograms": {name: list(values) for name, values in _HISTOGRAMS.items()},
        }
        _COUNTERS.clear()
        _GAUGES.clear()
        _HISTOGRAMS.clear()
    return raw


def merge_metrics(raw: Optional[Mapping[str, Any]]) -> None:
    """Fold a :func:`drain_metrics` payload (e.g. from a pool worker) in.

    Counters add, gauges take the incoming value (last write wins),
    histograms concatenate observations — the same totals a serial run
    would have recorded directly.
    """
    if not raw:
        return
    with _LOCK:
        for name, value in raw.get("counters", {}).items():
            _COUNTERS[name] = _COUNTERS.get(name, 0.0) + value
        for name, value in raw.get("gauges", {}).items():
            _GAUGES[name] = float(value)
        for name, values in raw.get("histograms", {}).items():
            _HISTOGRAMS.setdefault(name, []).extend(float(v) for v in values)


def reset_metrics() -> None:
    with _LOCK:
        _COUNTERS.clear()
        _GAUGES.clear()
        _HISTOGRAMS.clear()
