"""Spans, metrics and trace export for the estimation → experiment → pool stack.

The paper's reproduction is an empirical comparison of estimation
methods; this package is how we answer "where did those seconds go" at
any scale.  Three pieces:

* **spans** (:mod:`repro.telemetry.spans`) — a contextvar-scoped
  ``span("estimate", method=..., n_pairs=...)`` context manager forming a
  trace tree with wall time and attached events; crosses the process
  pool (workers ship their spans home and the parent re-parents them
  under the submitting span, see :mod:`repro.parallel`).
* **metrics** (:mod:`repro.telemetry.metrics`) — counters, gauges and
  histograms for solver iterations, IPF sweeps, workspace cache hits,
  pool queue-wait/execute time and supervisor retries/fallbacks.
* **exporters** (:mod:`repro.telemetry.export`) — JSONL span dumps,
  Chrome trace-event JSON loadable in Perfetto, and a per-stage
  ``summary_table()`` rollup.

Telemetry is **off by default** and every instrumented call site
collapses to a flag check, so the instrumentation lives permanently in
the production paths.  Typical use::

    from repro import telemetry

    telemetry.enable()
    result = estimator.estimate(problem)
    telemetry.export_chrome_trace("trace.json")
    print(telemetry.format_summary())
"""

from __future__ import annotations

from repro.telemetry.export import (
    chrome_trace_events,
    export_chrome_trace,
    export_spans_jsonl,
    format_summary,
    summary_table,
)
from repro.telemetry.metrics import (
    counter_inc,
    drain_metrics,
    gauge_set,
    histogram_observe,
    merge_metrics,
    metrics_snapshot,
    record_iterations,
    reset_metrics,
)
from repro.telemetry.spans import (
    SpanRecord,
    add_event,
    attach_spans,
    capture,
    clear_spans,
    clock,
    collected_spans,
    current_span,
    disable,
    drain_spans,
    enable,
    is_enabled,
    set_attributes,
    span,
)

__all__ = [
    "SpanRecord",
    "span",
    "current_span",
    "set_attributes",
    "add_event",
    "enable",
    "disable",
    "is_enabled",
    "clock",
    "capture",
    "drain_spans",
    "collected_spans",
    "clear_spans",
    "attach_spans",
    "counter_inc",
    "gauge_set",
    "histogram_observe",
    "record_iterations",
    "metrics_snapshot",
    "drain_metrics",
    "merge_metrics",
    "reset_metrics",
    "chrome_trace_events",
    "export_chrome_trace",
    "export_spans_jsonl",
    "summary_table",
    "format_summary",
    "reset_telemetry",
]


def reset_telemetry() -> None:
    """Clear collected spans and metrics (the enabled flag is untouched)."""
    clear_spans()
    reset_metrics()
