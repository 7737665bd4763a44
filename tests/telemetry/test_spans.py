"""Span primitives: nesting, no-op discipline, capture and re-parenting."""

from __future__ import annotations

import os

import pytest

from repro import telemetry
from repro.telemetry.spans import _NOOP, SpanRecord


def by_name(records, name):
    return [r for r in records if r.name == name]


class TestDisabled:
    def test_span_is_shared_noop_singleton(self):
        assert telemetry.span("anything", key=1) is _NOOP
        assert telemetry.span("other") is _NOOP

    def test_nothing_is_collected(self):
        with telemetry.span("stage") as active:
            active.set_attributes(k=1)
            active.add_event("tick")
            telemetry.set_attributes(other=2)
            telemetry.add_event("module-level")
            assert telemetry.current_span() is None
        assert telemetry.collected_spans() == ()
        assert not telemetry.is_enabled()


class TestEnabled:
    def test_nesting_builds_a_tree(self, telemetry_on):
        with telemetry.span("outer") as outer:
            with telemetry.span("inner") as inner:
                assert telemetry.current_span() is inner
            with telemetry.span("sibling"):
                pass
            assert telemetry.current_span() is outer
        records = telemetry.drain_spans()
        # children finish (and are appended) before the parent
        assert [r.name for r in records] == ["inner", "sibling", "outer"]
        (outer_rec,) = by_name(records, "outer")
        assert outer_rec.parent_id is None
        for child in ("inner", "sibling"):
            (rec,) = by_name(records, child)
            assert rec.parent_id == outer_rec.span_id

    def test_ids_are_pid_prefixed_and_unique(self, telemetry_on):
        with telemetry.span("a"):
            pass
        with telemetry.span("b"):
            pass
        records = telemetry.drain_spans()
        ids = [r.span_id for r in records]
        assert len(set(ids)) == 2
        assert all(i.startswith(f"{os.getpid()}:") for i in ids)
        assert all(r.process == os.getpid() for r in records)

    def test_attributes_events_and_timing(self, telemetry_on):
        with telemetry.span("stage", method="entropy") as active:
            active.set_attributes(n_pairs=30)
            telemetry.set_attributes(extra=True)
            telemetry.add_event("retry", attempt=1)
        (record,) = telemetry.drain_spans()
        assert record.attributes["method"] == "entropy"
        assert record.attributes["n_pairs"] == 30
        assert record.attributes["extra"] is True
        (offset, name, attrs) = record.events[0]
        assert name == "retry" and attrs == {"attempt": 1}
        assert 0.0 <= offset <= record.duration
        assert record.duration >= 0.0
        assert record.label() == "stage[entropy]"

    def test_exception_records_error_and_propagates(self, telemetry_on):
        with pytest.raises(ValueError):
            with telemetry.span("doomed"):
                raise ValueError("boom")
        (record,) = telemetry.drain_spans()
        assert record.attributes["error"] == "ValueError"

    def test_drain_clears_collected_does_not(self, telemetry_on):
        with telemetry.span("once"):
            pass
        assert len(telemetry.collected_spans()) == 1
        assert len(telemetry.collected_spans()) == 1
        assert len(telemetry.drain_spans()) == 1
        assert telemetry.collected_spans() == ()


class TestCapture:
    def test_capture_isolates_from_global_collector(self, telemetry_on):
        with telemetry.span("before"):
            pass
        with telemetry.capture() as captured:
            with telemetry.span("inside"):
                pass
        assert [r.name for r in captured] == ["inside"]
        # the surrounding trace never saw the captured span
        assert [r.name for r in telemetry.drain_spans()] == ["before"]


class TestAttachSpans:
    @staticmethod
    def _record(name, span_id, parent_id):
        return SpanRecord(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            start_wall=100.0,
            duration=0.5,
            process=4242,
            thread=1,
        )

    def test_reparents_only_the_remote_roots(self, telemetry_on):
        remote = [
            self._record("pool.task", "4242:1", "4242:99"),  # orphan parent -> root
            self._record("estimate", "4242:2", "4242:1"),  # internal edge kept
        ]
        roots = telemetry.attach_spans(remote, parent_id="1:7")
        assert [r.span_id for r in roots] == ["4242:1"]
        records = {r.span_id: r for r in telemetry.drain_spans()}
        assert records["4242:1"].parent_id == "1:7"
        assert records["4242:2"].parent_id == "4242:1"

    def test_empty_batch_is_a_noop(self, telemetry_on):
        assert telemetry.attach_spans([], parent_id="1:7") == []
        assert telemetry.collected_spans() == ()
