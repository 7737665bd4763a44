"""Exporters: JSONL dump, Chrome trace events, summary rollup."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import telemetry
from repro.telemetry.spans import SpanRecord


def make_records():
    """A two-level trace: parent (1.0s) with one child (0.4s) and an event."""
    parent = SpanRecord(
        name="estimate",
        span_id="10:1",
        parent_id=None,
        start_wall=1000.0,
        duration=1.0,
        process=10,
        thread=5,
        attributes={"method": "entropy", "n_pairs": 30},
    )
    child = SpanRecord(
        name="routing.build_matrix",
        span_id="10:2",
        parent_id="10:1",
        start_wall=1000.1,
        duration=0.4,
        process=10,
        thread=5,
        events=[(0.2, "cache-miss", {"key": "triangle"})],
    )
    return [parent, child]


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        count = telemetry.export_spans_jsonl(str(path), make_records())
        assert count == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [entry["name"] for entry in lines] == ["estimate", "routing.build_matrix"]
        assert lines[0]["attributes"] == {"method": "entropy", "n_pairs": 30}
        assert lines[1]["parent_id"] == "10:1"
        assert lines[1]["events"] == [
            {"offset": 0.2, "name": "cache-miss", "attributes": {"key": "triangle"}}
        ]

    def test_defaults_to_collected_spans(self, tmp_path, telemetry_on):
        with telemetry.span("stage"):
            pass
        path = tmp_path / "spans.jsonl"
        assert telemetry.export_spans_jsonl(str(path)) == 1


class TestChromeTrace:
    def test_complete_events_shape(self):
        events = telemetry.chrome_trace_events(make_records())
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 2 and len(instants) == 1
        parent = complete[0]
        assert parent["name"] == "estimate[entropy]"  # label carries the method
        assert parent["ts"] == pytest.approx(1000.0 * 1e6)
        assert parent["dur"] == pytest.approx(1.0 * 1e6)
        assert parent["pid"] == 10 and parent["tid"] == 5
        assert parent["args"]["span_id"] == "10:1"
        assert "parent_id" not in parent["args"]
        child = complete[1]
        assert child["args"]["parent_id"] == "10:1"
        event = instants[0]
        assert event["name"] == "cache-miss"
        assert event["ts"] == pytest.approx((1000.1 + 0.2) * 1e6)

    def test_export_writes_perfetto_document(self, tmp_path):
        path = tmp_path / "trace.json"
        assert telemetry.export_chrome_trace(str(path), make_records()) == 2
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == 3


class TestSummary:
    def test_rollup_and_self_time(self):
        table = telemetry.summary_table(make_records())
        parent = table["estimate[entropy]"]
        assert parent["count"] == 1
        assert parent["total_seconds"] == pytest.approx(1.0)
        assert parent["self_seconds"] == pytest.approx(0.6)  # 1.0 minus the 0.4s child
        child = table["routing.build_matrix"]
        assert child["self_seconds"] == pytest.approx(0.4)

    def test_format_contains_rows_and_handles_empty(self):
        text = telemetry.format_summary(telemetry.summary_table(make_records()))
        assert "estimate[entropy]" in text
        assert "routing.build_matrix" in text
        assert telemetry.format_summary({}) == "(no spans recorded)"


class TestTraceExample:
    def test_example_writes_a_trace_of_every_method(self, tmp_path):
        """``examples/trace_estimation.py`` end to end: both export files
        land in the working directory and the Chrome trace holds an
        estimate span for every compared method, with one pooled task per
        method re-parented under ``pool.run`` when the comparison crossed
        the pool."""
        repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src")
        result = subprocess.run(
            [sys.executable, os.path.join(repo, "examples", "trace_estimation.py")],
            env=env,
            cwd=str(tmp_path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        for label in ("Gravity", "Tomogravity", "Kruithof"):
            assert f"{label:<12} MRE" in result.stdout
        events = json.loads((tmp_path / "trace_estimation.json").read_text())["traceEvents"]
        estimates = {e["name"] for e in events if e["name"].startswith("estimate[")}
        assert {
            "estimate[gravity]",
            "estimate[kruithof]",
            "estimate[tomogravity]",
        } <= estimates
        pool_runs = [e for e in events if e["name"] == "pool.run"]
        tasks = [e for e in events if e["name"] == "pool.task"]
        if pool_runs:
            (pool_run,) = pool_runs
            assert len(tasks) == 3
            assert all(
                e["args"]["parent_id"] == pool_run["args"]["span_id"] for e in tasks
            )
        lines = (tmp_path / "trace_estimation_spans.jsonl").read_text().splitlines()
        assert len(lines) == len(events)
