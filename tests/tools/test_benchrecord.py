"""The shared benchmark-record helper: key merging and the meta block."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import benchrecord  # noqa: E402
from benchrecord import merge_record, record_meta  # noqa: E402


META_FIELDS = (
    "git_sha",
    "git_dirty",
    "python_version",
    "numpy_version",
    "platform",
    "cpu_count",
    "recorded_at_utc",
)


def test_record_meta_fields():
    meta = record_meta()
    assert set(META_FIELDS) <= set(meta)
    assert meta["python_version"].count(".") == 2
    assert meta["cpu_count"] >= 1
    assert "T" in meta["recorded_at_utc"]  # ISO-8601 timestamp


def test_merge_preserves_existing_keys_and_stamps_meta(tmp_path):
    path = tmp_path / "BENCH_TEST.json"
    merge_record(path, "first", {"seconds": 1.5})
    merge_record(path, "second", {"seconds": 2.5})
    record = json.loads(path.read_text())
    assert record["first"] == {"seconds": 1.5}
    assert record["second"] == {"seconds": 2.5}
    assert set(META_FIELDS) <= set(record["meta"])


def test_merge_replaces_corrupt_record(tmp_path):
    path = tmp_path / "BENCH_TEST.json"
    path.write_text("{not json")
    merge_record(path, "only", {"seconds": 0.1})
    record = json.loads(path.read_text())
    assert set(record) == {"only", "meta"}


def git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


def test_git_dirty_follows_tracked_files(tmp_path, monkeypatch):
    repo = tmp_path / "checkout"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "tracked.txt").write_text("one\n")
    git(repo, "add", "tracked.txt")
    git(repo, "commit", "-q", "-m", "first")
    monkeypatch.setattr(benchrecord, "REPO_ROOT", repo)

    clean = record_meta()
    assert clean["git_dirty"] is False
    assert len(clean["git_sha"]) == 40
    (repo / "untracked.txt").write_text("notes\n")  # not part of the measured tree
    assert record_meta()["git_dirty"] is False
    (repo / "tracked.txt").write_text("two\n")
    dirty = record_meta()
    assert dirty["git_dirty"] is True
    assert dirty["git_sha"] == clean["git_sha"]


def test_git_failure_is_unknown(monkeypatch):
    def no_git(*args, **kwargs):
        raise OSError("git is not installed")

    monkeypatch.setattr(benchrecord.subprocess, "run", no_git)
    meta = record_meta()
    assert meta["git_sha"] == "unknown"
    assert meta["git_dirty"] == "unknown"
