"""Exporters: JSONL span dumps, Chrome trace-event JSON, summary rollups.

Three ways out of the in-memory trace:

* :func:`export_spans_jsonl` — one JSON object per line, every field of
  every :class:`~repro.telemetry.spans.SpanRecord`; the archival format.
* :func:`export_chrome_trace` — the Chrome trace-event format (complete
  ``"ph": "X"`` events), loadable in Perfetto / ``chrome://tracing``.
  Spans from pool workers keep their real ``pid``, so a pooled
  experiment run renders as one parent track plus one track per worker
  process on a shared wall-clock timeline.
* :func:`summary_table` / :func:`format_summary` — per-stage rollup
  (count, total, mean, max, self-time) keyed by the span label
  (``name[method]``), for a quick "where did the seconds go" answer
  without leaving the terminal.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Sequence

from repro.telemetry.spans import SpanRecord, collected_spans

__all__ = [
    "chrome_trace_events",
    "export_chrome_trace",
    "export_spans_jsonl",
    "summary_table",
    "format_summary",
]


def _resolve(records: Optional[Sequence[SpanRecord]]) -> list[SpanRecord]:
    return list(collected_spans() if records is None else records)


def export_spans_jsonl(path: str, records: Optional[Sequence[SpanRecord]] = None) -> int:
    """Write one JSON object per span to ``path``; returns the span count."""
    batch = _resolve(records)
    with open(path, "w", encoding="utf-8") as handle:
        for record in batch:
            handle.write(
                json.dumps(
                    {
                        "name": record.name,
                        "span_id": record.span_id,
                        "parent_id": record.parent_id,
                        "start_wall": record.start_wall,
                        "duration": record.duration,
                        "process": record.process,
                        "thread": record.thread,
                        "attributes": record.attributes,
                        "events": [
                            {"offset": offset, "name": name, "attributes": attrs}
                            for offset, name, attrs in record.events
                        ],
                    },
                    default=str,
                )
            )
            handle.write("\n")
    return len(batch)


def chrome_trace_events(records: Optional[Sequence[SpanRecord]] = None) -> list[dict[str, Any]]:
    """Spans as Chrome trace-event dicts (timestamps/durations in µs)."""
    events: list[dict[str, Any]] = []
    for record in _resolve(records):
        args = {key: value for key, value in record.attributes.items()}
        if record.parent_id is not None:
            args["parent_id"] = record.parent_id
        args["span_id"] = record.span_id
        events.append(
            {
                "name": record.label(),
                "cat": record.name,
                "ph": "X",
                "ts": record.start_wall * 1e6,
                "dur": record.duration * 1e6,
                "pid": record.process,
                "tid": record.thread % 1_000_000,
                "args": args,
            }
        )
        for offset, name, attrs in record.events:
            events.append(
                {
                    "name": name,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": (record.start_wall + offset) * 1e6,
                    "pid": record.process,
                    "tid": record.thread % 1_000_000,
                    "args": dict(attrs),
                }
            )
    return events


def export_chrome_trace(path: str, records: Optional[Sequence[SpanRecord]] = None) -> int:
    """Write a Perfetto-loadable trace JSON to ``path``; returns the span count."""
    batch = _resolve(records)
    document = {
        "traceEvents": chrome_trace_events(batch),
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, default=str)
    return len(batch)


def summary_table(
    records: Optional[Sequence[SpanRecord]] = None,
) -> dict[str, dict[str, float]]:
    """Per-stage rollup keyed by span label.

    Each row carries ``count``, ``total_seconds``, ``mean_seconds``,
    ``max_seconds`` and ``self_seconds`` (total minus time spent in child
    spans — the stage's own share of the wall clock).
    """
    batch = _resolve(records)
    child_time: dict[str, float] = {}
    for record in batch:
        if record.parent_id is not None:
            child_time[record.parent_id] = child_time.get(record.parent_id, 0.0) + record.duration
    table: dict[str, dict[str, float]] = {}
    for record in batch:
        row = table.setdefault(
            record.label(),
            {
                "count": 0.0,
                "total_seconds": 0.0,
                "mean_seconds": 0.0,
                "max_seconds": 0.0,
                "self_seconds": 0.0,
            },
        )
        row["count"] += 1
        row["total_seconds"] += record.duration
        row["max_seconds"] = max(row["max_seconds"], record.duration)
        row["self_seconds"] += max(0.0, record.duration - child_time.get(record.span_id, 0.0))
    for row in table.values():
        row["mean_seconds"] = row["total_seconds"] / row["count"]
    return table


def format_summary(table: Optional[dict[str, dict[str, float]]] = None) -> str:
    """Render a :func:`summary_table` as an aligned text table."""
    if table is None:
        table = summary_table()
    if not table:
        return "(no spans recorded)"
    rows = sorted(table.items(), key=lambda item: item[1]["total_seconds"], reverse=True)
    label_width = max(len("stage"), max(len(label) for label, _ in rows))
    header = (
        f"{'stage':<{label_width}}  {'count':>6}  {'total':>9}  "
        f"{'mean':>9}  {'max':>9}  {'self':>9}"
    )
    lines = [header, "-" * len(header)]
    for label, row in rows:
        lines.append(
            f"{label:<{label_width}}  {int(row['count']):>6}  "
            f"{row['total_seconds']:>8.3f}s  {row['mean_seconds']:>8.3f}s  "
            f"{row['max_seconds']:>8.3f}s  {row['self_seconds']:>8.3f}s"
        )
    return "\n".join(lines)
