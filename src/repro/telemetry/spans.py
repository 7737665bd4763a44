"""Hierarchical spans: the trace backbone of :mod:`repro.telemetry`.

A *span* covers one timed stage of the request path — an ``estimate``
call, a routing-matrix build, a pool task inside a worker process.
Spans nest through a :class:`contextvars.ContextVar`, so the innermost
open span is always the parent of the next one opened on the same
logical flow, forming a trace tree without any explicit plumbing:

    with span("estimate", method="entropy", n_pairs=problem.num_pairs):
        with span("routing.build_matrix"):
            ...

Telemetry is **disabled by default** and every entry point is designed
to cost next to nothing in that state: :func:`span` returns a shared
no-op singleton (no allocation, no clock read), and the module-level
helpers check a single attribute before doing anything.  Production
paths therefore keep their spans permanently in place.

Timestamps combine two clocks deliberately: ``start_wall`` is wall-clock
(``time.time``) so spans recorded in *different processes* of the same
machine line up on one timeline, while ``duration`` comes from
``time.perf_counter`` deltas for resolution.  Cross-process span ids are
``"{pid}:{counter}"``, unique even under ``fork`` inheritance of the
counter.

Workers isolate their spans with :func:`capture` and ship the records
home; the parent calls :func:`attach_spans` to re-parent the remote
roots under the submitting span (see :mod:`repro.parallel`).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

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
]


class _TelemetryState:
    """One mutable flag shared by every telemetry module (cheap to test)."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


#: The global on/off switch.  Hot paths read ``_STATE.enabled`` directly;
#: everything else goes through :func:`is_enabled`.
_STATE = _TelemetryState()

_LOCK = threading.Lock()
_SPANS: list["SpanRecord"] = []
_CURRENT: ContextVar[Optional["_ActiveSpan"]] = ContextVar(
    "repro_telemetry_current_span", default=None
)
_IDS = itertools.count(1)


def clock() -> float:
    """Wall-clock seconds — the sanctioned timestamp source for telemetry.

    Callers outside this package must not read ``time.time()`` or
    ``time.perf_counter()`` directly (reprolint REPRO601); they take
    timestamps from here so every recorded instant shares one clock.
    """
    return time.time()


@dataclass
class SpanRecord:
    """One finished span: a named, timed node of the trace tree.

    ``events`` holds ``(offset_seconds, name, attributes)`` triples
    relative to the span start.  Records are plain picklable data so pool
    workers can ship them back to the parent process.
    """

    name: str
    span_id: str
    parent_id: Optional[str]
    start_wall: float
    duration: float
    process: int
    thread: int
    attributes: dict[str, Any] = field(default_factory=dict)
    events: list[tuple[float, str, dict[str, Any]]] = field(default_factory=list)

    def label(self) -> str:
        """Stage label used by the summary rollup: ``name[method]`` when
        the span carries a ``method`` attribute, plain ``name`` otherwise."""
        method = self.attributes.get("method")
        return f"{self.name}[{method}]" if method else self.name


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def add_event(self, name: str, **attributes: Any) -> None:
        pass


_NOOP = _NoopSpan()


class _ActiveSpan:
    """A live span; becomes a :class:`SpanRecord` on exit."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attributes",
        "events",
        "_start_wall",
        "_start_perf",
        "_token",
    )

    def __init__(self, name: str, attributes: dict[str, Any]) -> None:
        self.name = name
        self.span_id = f"{os.getpid()}:{next(_IDS)}"
        self.parent_id: Optional[str] = None
        self.attributes = attributes
        self.events: list[tuple[float, str, dict[str, Any]]] = []
        self._start_wall = 0.0
        self._start_perf = 0.0

    def __enter__(self) -> "_ActiveSpan":
        parent = _CURRENT.get()
        self.parent_id = parent.span_id if parent is not None else None
        self._token = _CURRENT.set(self)
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        duration = time.perf_counter() - self._start_perf
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attributes.setdefault("error", getattr(exc_type, "__name__", str(exc_type)))
        record = SpanRecord(
            name=self.name,
            span_id=self.span_id,
            parent_id=self.parent_id,
            start_wall=self._start_wall,
            duration=duration,
            process=os.getpid(),
            thread=threading.get_ident(),
            attributes=self.attributes,
            events=self.events,
        )
        with _LOCK:
            _SPANS.append(record)
        return False

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def add_event(self, name: str, **attributes: Any) -> None:
        self.events.append((time.perf_counter() - self._start_perf, name, attributes))


def span(name: str, **attributes: Any) -> Any:
    """Open a span named ``name`` (a no-op singleton while disabled)."""
    if not _STATE.enabled:
        return _NOOP
    return _ActiveSpan(name, attributes)


def current_span() -> Optional[_ActiveSpan]:
    """The innermost open span on this flow, or ``None``."""
    if not _STATE.enabled:
        return None
    return _CURRENT.get()


def set_attributes(**attributes: Any) -> None:
    """Attach attributes to the current span (no-op when disabled/rootless)."""
    if not _STATE.enabled:
        return
    active = _CURRENT.get()
    if active is not None:
        active.set_attributes(**attributes)


def add_event(name: str, **attributes: Any) -> None:
    """Attach a point-in-time event to the current span."""
    if not _STATE.enabled:
        return
    active = _CURRENT.get()
    if active is not None:
        active.add_event(name, **attributes)


def enable() -> None:
    """Turn telemetry on (spans and metrics record from here on)."""
    _STATE.enabled = True


def disable() -> None:
    """Turn telemetry off; already-collected spans stay drainable."""
    _STATE.enabled = False


def is_enabled() -> bool:
    return _STATE.enabled


def drain_spans() -> list[SpanRecord]:
    """Return every collected span and clear the collector."""
    with _LOCK:
        records = list(_SPANS)
        _SPANS.clear()
    return records


def collected_spans() -> tuple[SpanRecord, ...]:
    """Snapshot of the collected spans without clearing them."""
    with _LOCK:
        return tuple(_SPANS)


def clear_spans() -> None:
    with _LOCK:
        _SPANS.clear()


@contextmanager
def capture() -> Iterator[list[SpanRecord]]:
    """Collect spans finished inside the block into an isolated list.

    The global collector is swapped out for the duration, so the captured
    records do *not* also land in the surrounding trace — pool workers use
    this to bound exactly one task's spans before shipping them home
    (fork-inherited parent spans stay in the saved collector).
    """
    global _SPANS
    with _LOCK:
        saved = _SPANS
        _SPANS = []
        captured = _SPANS
    try:
        yield captured
    finally:
        with _LOCK:
            _SPANS = saved


def attach_spans(
    records: Sequence[SpanRecord], parent_id: Optional[str] = None
) -> list[SpanRecord]:
    """Adopt remote span records into this process's trace.

    Records whose ``parent_id`` does not refer to another record in the
    same batch are *roots* of the remote subtree: they are re-parented
    under ``parent_id`` (typically the submitting span).  All records are
    appended to the collector; the roots are returned so the caller can
    annotate them (queue-wait, task index, ...).
    """
    batch = list(records)
    if not batch:
        return []
    local_ids = {record.span_id for record in batch}
    roots: list[SpanRecord] = []
    for record in batch:
        if record.parent_id not in local_ids:
            record.parent_id = parent_id
            roots.append(record)
    with _LOCK:
        _SPANS.extend(batch)
    return roots
