"""The benchmark ledger: the runner, its entries and the committed ``BENCH.json``."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import bench_telemetry  # noqa: E402
import ledger  # noqa: E402
from ledger import BLAS_THREAD_VARS, TIERS, entry_meta, write_entry  # noqa: E402


META_FIELDS = (
    "git_sha",
    "git_dirty",
    "python_version",
    "numpy_version",
    "platform",
    "cpu_count",
    "blas_threads",
    "recorded_at_utc",
)
ENTRY_KEYS = {"meta", "inputs", "metrics", "checks"}


def run_runner(tmp_path: Path, check_passes: bool) -> subprocess.CompletedProcess:
    """Run a copy of the runner on a stand-in ``streaming`` tier, in a fresh process.

    The copy's ledger is ``tmp_path / "BENCH.json"``.  The stand-in reports,
    as its inputs, the BLAS pin it saw and whether numpy was already loaded.
    """
    bench = tmp_path / "benchmarks"
    bench.mkdir(exist_ok=True)
    shutil.copy(BENCH_DIR / "ledger.py", bench / "ledger.py")
    (bench / "bench_streaming.py").write_text(textwrap.dedent(f"""
        import os
        import sys

        def measure():
            inputs = {{
                "blas_pin": os.environ.get("OPENBLAS_NUM_THREADS"),
                "numpy_loaded": "numpy" in sys.modules,
            }}
            return inputs, {{"poll_ms": (2.5, "ms")}}, {{"fast": {check_passes}}}
    """))
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    return subprocess.run(
        [sys.executable, str(bench / "ledger.py"), "streaming"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_entry_meta_fields():
    meta = entry_meta()
    assert set(META_FIELDS) <= set(meta)
    assert meta["python_version"].count(".") == 2
    assert meta["cpu_count"] >= 1
    assert "T" in meta["recorded_at_utc"]  # ISO-8601 timestamp


def test_runner_keeps_other_tiers_and_stamps_its_own_meta(tmp_path):
    other = {"meta": {"git_sha": "abc"}, "inputs": {}, "metrics": {}, "checks": {}}
    (tmp_path / "BENCH.json").write_text(json.dumps({"telemetry": other}))
    completed = run_runner(tmp_path, check_passes=True)
    assert completed.returncode == 0, completed.stderr
    written = json.loads((tmp_path / "BENCH.json").read_text())
    assert written["telemetry"] == other
    entry = written["streaming"]
    assert set(entry) == ENTRY_KEYS
    assert set(META_FIELDS) <= set(entry["meta"])
    assert entry["meta"]["blas_threads"] == 1
    # The pin was in place before numpy loaded, so BLAS read it.
    assert entry["inputs"] == {"blas_pin": "1", "numpy_loaded": False}
    assert entry["metrics"] == {"poll_ms": {"value": 2.5, "unit": "ms"}}
    assert entry["checks"] == {"fast": True}


def test_false_check_exits_1_after_writing(tmp_path):
    completed = run_runner(tmp_path, check_passes=False)
    assert completed.returncode == 1
    assert "check fast: FAILED" in completed.stdout
    entry = json.loads((tmp_path / "BENCH.json").read_text())["streaming"]
    assert entry["checks"] == {"fast": False}


def test_corrupt_ledger_is_replaced(tmp_path):
    path = tmp_path / "BENCH.json"
    path.write_text("{not json")
    write_entry(path, "streaming", {"checks": {}})
    assert json.loads(path.read_text()) == {"streaming": {"checks": {}}}


def test_committed_ledger_holds_every_tier_with_passing_checks():
    committed = json.loads((REPO_ROOT / "BENCH.json").read_text())
    assert set(committed) == set(TIERS)
    for tier, entry in committed.items():
        assert set(entry) == ENTRY_KEYS, tier
        assert set(META_FIELDS) <= set(entry["meta"]), tier
        assert entry["meta"]["blas_threads"] == 1, tier
        assert entry["metrics"] and entry["checks"], tier
        for name, metric in entry["metrics"].items():
            assert set(metric) == {"value", "unit"}, (tier, name)
            assert math.isfinite(metric["value"]) and metric["unit"], (tier, name)
        assert all(passed is True for passed in entry["checks"].values()), (tier, entry["checks"])


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
    (repo / "BENCH.json").write_text("{}\n")
    git(repo, "add", "tracked.txt", "BENCH.json")
    git(repo, "commit", "-q", "-m", "first")
    monkeypatch.setattr(ledger, "REPO_ROOT", repo)

    clean = entry_meta()
    assert clean["git_dirty"] is False
    assert len(clean["git_sha"]) == 40
    (repo / "untracked.txt").write_text("notes\n")  # not part of the measured tree
    assert entry_meta()["git_dirty"] is False
    (repo / "BENCH.json").write_text('{"streaming": {}}\n')  # the ledger itself
    assert entry_meta()["git_dirty"] is False
    (repo / "tracked.txt").write_text("two\n")
    dirty = entry_meta()
    assert dirty["git_dirty"] is True
    assert dirty["git_sha"] == clean["git_sha"]


def test_git_failure_is_unknown(monkeypatch):
    def no_git(*args, **kwargs):
        raise OSError("git is not installed")

    monkeypatch.setattr(ledger.subprocess, "run", no_git)
    meta = entry_meta()
    assert meta["git_sha"] == "unknown"
    assert meta["git_dirty"] == "unknown"


def test_telemetry_pairs_alternate_which_call_goes_first():
    calls = []
    seconds = bench_telemetry._paired_seconds(
        lambda: calls.append("a"), lambda: calls.append("b"), pairs=4
    )
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert len(seconds) == 4 and all(a >= 0.0 and b >= 0.0 for a, b in seconds)
