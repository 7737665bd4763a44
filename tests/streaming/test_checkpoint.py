"""Checkpoint/restore and crash-recovery tests for the streaming daemon."""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import struct
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest
import scipy.sparse

from repro.errors import StreamingError
from repro.routing import RoutingMatrix
from repro.routing import routing_matrix as routing_matrix_module
from repro.routing import reroute
from repro.resilience.faults import (
    ClockSkew,
    CollectorOutage,
    Counter32Wrap,
    CounterReset,
    FaultPlan,
    PollLossBurst,
    StuckCounter,
    fault_plan,
)
from repro.streaming import (
    CHECKPOINT_VERSION,
    CounterTracker,
    PollStream,
    StreamingEstimator,
    load_checkpoint,
)
from repro.streaming import checkpoint as checkpoint_module
from repro.streaming.checkpoint import write_checkpoint

FAULT_PLANS = {
    "clean": None,
    "loss-burst": fault_plan(
        PollLossBurst(start_round=3, num_rounds=2, fraction=0.6), seed=1
    ),
    "collector-outage": fault_plan(
        CollectorOutage(poller_index=0, start_round=5, num_rounds=3), seed=2
    ),
    "counter-reset": fault_plan(CounterReset(round_index=7), seed=3),
    "counter32-wrap": fault_plan(Counter32Wrap(), seed=4),
    "clock-skew": fault_plan(ClockSkew(offset_seconds=15.0, start_round=4), seed=5),
    "stuck-counter": fault_plan(StuckCounter(start_round=6, num_rounds=2), seed=6),
    "composed": fault_plan(
        PollLossBurst(start_round=2, num_rounds=2, fraction=0.5),
        Counter32Wrap(),
        ClockSkew(offset_seconds=8.0, start_round=6),
        CounterReset(round_index=9),
        seed=7,
    ),
}


def make_daemon(collector_factory, plan):
    return StreamingEstimator.from_collector(
        collector_factory(fault_plan=plan),
        method="tomogravity",
        min_valid_fraction=0.5,
    )


def rewrite(path, meta, arrays):
    """Replace the checkpoint at ``path`` with a doctored ``(meta, arrays)``."""
    with open(path, "wb") as handle:
        write_checkpoint(handle, meta, arrays)


def run_stream(daemon, stream, kill_after=None, checkpoint_path=None):
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for record in daemon.run(stream):
            lines.append(record.payload_line())
            if kill_after is not None and len(lines) == kill_after:
                daemon.checkpoint(checkpoint_path)
                break
    return lines


class TestResumeIdentity:
    @pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
    def test_kill_and_resume_reproduces_records_bit_identically(
        self, plan_name, stream_scenario, collector_factory, tmp_path
    ):
        plan = FAULT_PLANS[plan_name]
        series = stream_scenario.day_series
        loss = 0.05 if plan is not None else 0.0

        def stream_factory():
            return PollStream.from_collector(
                collector_factory(fault_plan=plan, loss_probability=loss,
                                  jitter_std_seconds=1.0),
                series,
            )

        daemon_kwargs = dict(fault_plan=plan, loss_probability=loss,
                             jitter_std_seconds=1.0)
        full_daemon = StreamingEstimator.from_collector(
            collector_factory(**daemon_kwargs), method="tomogravity", min_valid_fraction=0.5
        )
        full = run_stream(full_daemon, stream_factory())
        assert len(full) == len(series)

        path = tmp_path / f"{plan_name}.ckpt"
        killed = StreamingEstimator.from_collector(
            collector_factory(**daemon_kwargs), method="tomogravity", min_valid_fraction=0.5
        )
        head = run_stream(killed, stream_factory(), kill_after=6, checkpoint_path=str(path))
        resumed = StreamingEstimator.restore(str(path), stream_scenario.routing)
        tail = run_stream(resumed, stream_factory())
        assert head + tail == full


class TestCheckpointRoundtrip:
    def test_state_survives_roundtrip_exactly(
        self, stream_scenario, collector_factory, tmp_path
    ):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = make_daemon(collector_factory, None)
        iterator = daemon.run(stream)
        for _ in range(7):
            next(iterator)

        path = tmp_path / "daemon.ckpt"
        daemon.checkpoint(str(path))
        restored = StreamingEstimator.restore(str(path), stream_scenario.routing)

        assert restored.rounds_seen == daemon.rounds_seen
        assert restored.sequence == daemon.sequence
        assert restored.epoch == daemon.epoch
        assert restored.stale_polls == daemon.stale_polls
        assert restored.watchdog_checks == daemon.watchdog_checks == 7
        np.testing.assert_array_equal(restored.estimate, daemon.estimate)
        np.testing.assert_array_equal(
            restored.tracker.last_counter, daemon.tracker.last_counter
        )
        np.testing.assert_array_equal(
            restored.tracker.last_response, daemon.tracker.last_response
        )
        np.testing.assert_array_equal(restored.tracker.rate, daemon.tracker.rate)
        np.testing.assert_array_equal(restored.tracker.have_last, daemon.tracker.have_last)

    def test_checkpoint_before_first_estimate(self, stream_scenario, collector_factory, tmp_path):
        daemon = make_daemon(collector_factory, None)
        path = tmp_path / "cold.ckpt"
        daemon.checkpoint(str(path))
        restored = StreamingEstimator.restore(str(path), stream_scenario.routing)
        assert restored.estimate is None
        assert restored.rounds_seen == 0

    def test_checkpoint_after_reroute_restores_epoch_routing(
        self, stream_scenario, collector_factory, tmp_path
    ):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = make_daemon(collector_factory, None)
        iterator = daemon.run(stream)
        for _ in range(3):
            next(iterator)
        failed = stream_scenario.routing.link_names[0]
        daemon.apply_reroute(failed_links=[failed])
        next(iterator)

        path = tmp_path / "rerouted.ckpt"
        daemon.checkpoint(str(path))
        restored = StreamingEstimator.restore(str(path), stream_scenario.routing)
        assert restored.epoch == 1
        assert restored.failed_links == {failed}
        assert restored.routing.fingerprint() == daemon.routing.fingerprint()
        assert restored.routing.fingerprint() != stream_scenario.routing.fingerprint()


class TestCheckpointValidation:
    def _checkpoint(self, stream_scenario, collector_factory, path):
        daemon = make_daemon(collector_factory, None)
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        iterator = daemon.run(stream)
        next(iterator)
        daemon.checkpoint(str(path))
        return daemon

    def test_version_mismatch_rejected(self, stream_scenario, collector_factory, tmp_path):
        path = tmp_path / "versioned.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        meta, arrays = load_checkpoint(str(path))
        assert meta["version"] == CHECKPOINT_VERSION
        meta["version"] = CHECKPOINT_VERSION + 1
        rewrite(path, meta, arrays)
        with pytest.raises(StreamingError):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    def test_fingerprint_mismatch_rejected(
        self, stream_scenario, collector_factory, tmp_path
    ):
        path = tmp_path / "fingerprint.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        other, _ = reroute(
            stream_scenario.routing, failed_links=[stream_scenario.routing.link_names[0]]
        )
        with pytest.raises(StreamingError):
            StreamingEstimator.restore(str(path), other)

    def test_unreplayable_failure_set_rejected(
        self, stream_scenario, collector_factory, tmp_path
    ):
        path = tmp_path / "unknown-link.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        meta, arrays = load_checkpoint(str(path))
        meta["state"]["failed_links"] = ["no-such-link"]
        rewrite(path, meta, arrays)
        with pytest.raises(StreamingError, match="no-such-link"):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    def test_garbage_file_rejected(self, stream_scenario, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(StreamingError):
            load_checkpoint(str(path))

    def test_fingerprint_is_independent_of_the_input_format(self, stream_scenario):
        routing = stream_scenario.routing
        for source in (routing.matrix, scipy.sparse.coo_matrix(routing.matrix)):
            rebuilt = RoutingMatrix(source, routing.link_names, routing.pairs)
            assert rebuilt.fingerprint() == routing.fingerprint()


class WriterDied(BaseException):
    """Stands in for a process killed in the middle of a save."""


class TestCheckpointContents:
    def _checkpoint(self, stream_scenario, collector_factory, path, records=3):
        daemon = make_daemon(collector_factory, None)
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        iterator = daemon.run(stream)
        for _ in range(records):
            next(iterator)
        daemon.checkpoint(str(path))
        return daemon, iterator

    def test_holds_the_state_and_no_names(self, stream_scenario, collector_factory, tmp_path):
        path = tmp_path / "contents.ckpt"
        daemon, _ = self._checkpoint(stream_scenario, collector_factory, path)
        meta, arrays = load_checkpoint(str(path))
        assert sorted(arrays) == sorted(
            [
                "tracker_have_last",
                "tracker_last_counter",
                "tracker_last_response",
                "tracker_rate",
                "tracker_counts",
                "estimate",
            ]
        )
        assert sorted(meta) == ["config", "routing_fingerprint", "state", "version"]
        assert meta["version"] == CHECKPOINT_VERSION == 6
        assert sorted(meta["state"]) == [
            "degraded_updates",
            "epoch",
            "failed_links",
            "failed_nodes",
            "has_estimate",
            "rounds_seen",
            "sequence",
            "stale_polls",
            "stale_streak",
            "watchdog_checks",
            "watchdog_resolves",
        ]
        options = set(inspect.signature(StreamingEstimator).parameters) - {"routing"}
        assert sorted(options) == ["fallbacks", "method", "method_params", "min_valid_fraction"]
        assert set(meta["config"]) == options
        assert set(daemon.config()) == options
        assert "lsp:" not in json.dumps(meta)
        for link in stream_scenario.routing.link_names:
            assert link not in json.dumps(meta["config"])

    def test_format_5_checkpoint_rejected_by_its_version(
        self, stream_scenario, collector_factory, tmp_path
    ):
        # Format 5 had this layout, but its tracker held one counter per LSP
        # and per link rather than the links and edge counters.
        path = tmp_path / "v5.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        meta, arrays = load_checkpoint(str(path))
        routing = stream_scenario.routing
        lsp_tracker = CounterTracker(routing.num_pairs + routing.num_links).state_arrays()
        rewrite(path, dict(meta, version=5), dict(arrays, **lsp_tracker))
        with pytest.raises(StreamingError, match="has version 5; this build reads version 6"):
            StreamingEstimator.restore(str(path), routing)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_npz_checkpoint_of_an_older_format_rejected(
        self, version, stream_scenario, collector_factory, tmp_path
    ):
        path = tmp_path / f"v{version}.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        meta, arrays = load_checkpoint(str(path))
        # Formats 1 to 4 were np.savez archives of the meta and the arrays.
        meta["version"] = version
        with open(path, "wb") as handle:
            np.savez(handle, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(
            StreamingError, match="an .npz checkpoint of format 4 or older.*reads format 6"
        ):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    def test_wrong_pair_count_rejected(self, stream_scenario, collector_factory, tmp_path):
        path = tmp_path / "pairs.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        meta, arrays = load_checkpoint(str(path))
        arrays["estimate"] = np.append(arrays["estimate"], 1.0)
        rewrite(path, meta, arrays)
        with pytest.raises(StreamingError, match="covers 21 pairs, routing has 20"):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    @pytest.mark.parametrize("fraction", [0.5, 0.9])
    def test_truncated_checkpoint_rejected(
        self, fraction, stream_scenario, collector_factory, tmp_path
    ):
        path = tmp_path / "torn.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * fraction)])
        with pytest.raises(StreamingError, match="cannot read checkpoint"):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    def test_missing_member_rejected(self, stream_scenario, collector_factory, tmp_path):
        path = tmp_path / "short.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        meta, arrays = load_checkpoint(str(path))
        del arrays["tracker_rate"]
        rewrite(path, meta, arrays)
        with pytest.raises(StreamingError, match="tracker_rate"):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    def test_unknown_option_rejected(self, stream_scenario, collector_factory, tmp_path):
        path = tmp_path / "options.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        meta, arrays = load_checkpoint(str(path))
        meta["config"]["window_rounds"] = 5
        rewrite(path, meta, arrays)
        with pytest.raises(StreamingError, match="window_rounds"):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    def test_writer_dying_mid_save_keeps_the_previous_checkpoint(
        self, stream_scenario, collector_factory, tmp_path, monkeypatch
    ):
        path = tmp_path / "daemon.ckpt"
        daemon, iterator = self._checkpoint(stream_scenario, collector_factory, path)
        saved_rounds = daemon.rounds_seen
        saved_estimate = daemon.estimate.copy()
        next(iterator)

        def dying_writer(handle, meta, arrays):
            handle.write(b"\x89RCKPT\r\n")  # the start of the fixed prefix
            raise WriterDied

        monkeypatch.setattr(checkpoint_module, "write_checkpoint", dying_writer)
        with pytest.raises(WriterDied):
            daemon.checkpoint(str(path))
        monkeypatch.undo()

        assert os.listdir(tmp_path) == ["daemon.ckpt"]
        restored = StreamingEstimator.restore(str(path), stream_scenario.routing)
        assert restored.rounds_seen == saved_rounds
        np.testing.assert_array_equal(restored.estimate, saved_estimate)

    def test_save_replaces_the_previous_checkpoint(
        self, stream_scenario, collector_factory, tmp_path
    ):
        path = tmp_path / "daemon.ckpt"
        daemon, iterator = self._checkpoint(stream_scenario, collector_factory, path)
        next(iterator)
        daemon.checkpoint(str(path))
        assert os.listdir(tmp_path) == ["daemon.ckpt"]
        assert StreamingEstimator.restore(str(path), stream_scenario.routing).rounds_seen == (
            daemon.rounds_seen
        )


#: Format 5's fixed prefix: magic, header length, header CRC-32.
PREFIX = struct.Struct("<8sII")


class TestFormat5:
    """The one-file layout: prefix, JSON header, raw arrays, two CRC-32s."""

    _checkpoint = TestCheckpointContents._checkpoint

    def test_every_array_survives_exactly(self, stream_scenario, collector_factory, tmp_path):
        path = tmp_path / "exact.ckpt"
        daemon, _ = self._checkpoint(stream_scenario, collector_factory, path)
        tracker = daemon.tracker
        # Counters near the top of the uint64 space must not pass through a float.
        tracker.last_counter[:3] = [2**64 - 1, 2**64 - 2**11 - 1, 2**63 + 1]
        tracker.wrap_samples = 2**62 + 1
        daemon.checkpoint(str(path))
        expected = dict(tracker.state_arrays(), estimate=daemon.estimate)

        _, arrays = load_checkpoint(str(path))
        assert sorted(arrays) == sorted(expected)
        restored = StreamingEstimator.restore(str(path), stream_scenario.routing)
        restored_arrays = dict(restored.tracker.state_arrays(), estimate=restored.estimate)
        for name, array in expected.items():
            for loaded in (arrays[name], restored_arrays[name]):
                assert loaded.dtype == array.dtype and loaded.shape == array.shape, name
                assert loaded.tobytes() == array.tobytes(), name
        assert int(restored.tracker.last_counter[0]) == 2**64 - 1
        assert restored.tracker.wrap_samples == 2**62 + 1

    def test_arrays_start_on_aligned_offsets(self, stream_scenario, collector_factory, tmp_path):
        path = tmp_path / "aligned.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        data = path.read_bytes()
        magic, header_length, header_crc = PREFIX.unpack_from(data)
        assert magic == b"\x89RCKPT\r\n"
        header_bytes = data[PREFIX.size : PREFIX.size + header_length]
        assert zlib.crc32(header_bytes) == header_crc
        header = json.loads(header_bytes)
        body = data[PREFIX.size + header_length :]
        assert (PREFIX.size + header_length) % 64 == 0
        assert header["body_length"] == len(body)
        assert header["body_crc32"] == zlib.crc32(body)
        for entry in header["arrays"].values():
            assert entry["offset"] % 64 == 0
            assert entry["offset"] + entry["nbytes"] <= len(body)

    def test_flipped_bit_inside_an_array_rejected(
        self, stream_scenario, collector_factory, tmp_path
    ):
        path = tmp_path / "flipped.ckpt"
        daemon, _ = self._checkpoint(stream_scenario, collector_factory, path)
        data = bytearray(path.read_bytes())
        position = bytes(data).index(daemon.tracker.last_response.tobytes())
        data[position + 3] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(StreamingError, match="cannot read checkpoint"):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    def test_header_length_past_the_end_rejected(
        self, stream_scenario, collector_factory, tmp_path
    ):
        path = tmp_path / "long-header.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        data = path.read_bytes()
        magic, _, header_crc = PREFIX.unpack_from(data)
        path.write_bytes(PREFIX.pack(magic, len(data), header_crc) + data[PREFIX.size :])
        with pytest.raises(StreamingError, match="points past the end"):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    def test_body_longer_than_the_header_says_rejected(
        self, stream_scenario, collector_factory, tmp_path
    ):
        path = tmp_path / "long-body.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        path.write_bytes(path.read_bytes() + bytes(64))
        with pytest.raises(StreamingError, match="body is .* bytes, header says"):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    @pytest.mark.parametrize(
        "damage", ["magic", "flipped-bit", "unparsable", "lacks-key", "state-lacks-key"]
    )
    def test_corrupt_header_rejected(
        self, damage, stream_scenario, collector_factory, tmp_path
    ):
        path = tmp_path / "header.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        data = bytearray(path.read_bytes())
        if damage == "magic":
            data[1] ^= 0x01
            expected = "bad magic"
        elif damage == "flipped-bit":
            data[PREFIX.size + 5] ^= 0x01  # inside the JSON header
            expected = "header CRC-32 mismatch"
        elif damage == "unparsable":
            header = b'{"version": 5, '
            data = bytearray(PREFIX.pack(b"\x89RCKPT\r\n", len(header), zlib.crc32(header)))
            data += header
            expected = "header does not parse"
        else:
            meta, arrays = load_checkpoint(str(path))
            if damage == "lacks-key":
                del meta["routing_fingerprint"]
                expected = "header lacks 'routing_fingerprint'"
            else:
                del meta["state"]["failed_links"]
                expected = "state lacks failed_links"
            rewrite(path, meta, arrays)
            data = bytearray(path.read_bytes())
        path.write_bytes(bytes(data))
        with pytest.raises(StreamingError, match=expected):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    @pytest.mark.parametrize(
        "name, doctor",
        [
            ("tracker_rate", lambda array: array[:-5]),
            ("tracker_last_counter", lambda array: array.astype(np.float64)),
            ("tracker_counts", lambda array: array[:3]),
            ("tracker_have_last", lambda array: array.astype(np.uint8)),
            ("tracker_last_response", lambda array: array.astype(np.float32)),
            ("estimate", lambda array: array.astype(np.float32)),
        ],
        ids=[
            "short-rate",
            "float-counter",
            "short-counts",
            "uint8-mask",
            "float32-response",
            "float32-estimate",
        ],
    )
    def test_array_of_the_wrong_dtype_or_length_rejected(
        self, name, doctor, stream_scenario, collector_factory, tmp_path
    ):
        path = tmp_path / "layout.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        meta, arrays = load_checkpoint(str(path))
        arrays[name] = doctor(arrays[name])
        rewrite(path, meta, arrays)
        with pytest.raises(StreamingError, match=name):
            StreamingEstimator.restore(str(path), stream_scenario.routing)


def format_1_fingerprint(routing, storage=None) -> str:
    """Reference: the fingerprint formula of checkpoint format version 1.

    Format 1 canonicalised the routing's storage (``routing.native`` unless
    ``storage`` is given): a dense array through ``csr_matrix``, a sparse
    matrix by copy, duplicate summing and index sorting.
    """
    native = routing.native if storage is None else storage
    if scipy.sparse.issparse(native):
        csr = native.tocsr().copy()
    else:
        csr = scipy.sparse.csr_matrix(np.asarray(native))
    csr.sum_duplicates()
    csr.sort_indices()
    digest = hashlib.sha256()
    digest.update(np.asarray(csr.shape, dtype=np.int64).tobytes())
    digest.update(csr.indptr.astype(np.int64).tobytes())
    digest.update(csr.indices.astype(np.int64).tobytes())
    digest.update(csr.data.astype(np.float64).tobytes())
    digest.update("\x00".join(routing.link_names).encode())
    digest.update("\x00".join(str(pair) for pair in routing.pairs).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module", params=["europe", "abilene", "stream-n200"])
def fingerprint_case(request):
    """A routing and the storage format 1 hashed it from.

    Europe and Abilene used to be stored dense, so format 1 canonicalised
    their dense view; the N=200 stream scenario has always been CSR.
    """
    import repro.datasets as datasets

    if request.param == "stream-n200":
        routing = datasets.large_scenario(200, seed=2010, num_samples=2, busy_length=2).routing
        return routing, routing.native
    routing = getattr(datasets, f"{request.param}_scenario")().routing
    return routing, routing.matrix


class TestFingerprint:
    def test_matches_format_1(self, fingerprint_case):
        routing, storage = fingerprint_case
        assert routing.fingerprint() == format_1_fingerprint(routing, storage)

    def test_computed_once_per_routing_matrix(self, stream_scenario, monkeypatch):
        calls = []

        class CountingHashlib:
            @staticmethod
            def sha256():
                calls.append(1)
                return hashlib.sha256()

        monkeypatch.setattr(routing_matrix_module, "hashlib", CountingHashlib)
        base = stream_scenario.routing
        routing = RoutingMatrix(base.native, base.link_names, base.pairs)
        first = routing.fingerprint()
        assert routing.fingerprint() == first
        assert len(calls) == 1
        RoutingMatrix(base.matrix, base.link_names, base.pairs).fingerprint()
        assert len(calls) == 2

    def test_rerouted_matrix_gets_its_own_fingerprint(self, stream_scenario):
        base = stream_scenario.routing
        base_fingerprint = base.fingerprint()
        rerouted, result = reroute(base, failed_links=[base.link_names[0]])
        assert result.rerouted
        assert rerouted.pairs is base.pairs
        assert rerouted.fingerprint() == format_1_fingerprint(rerouted)
        assert rerouted.fingerprint() != base_fingerprint
        assert base.fingerprint() == format_1_fingerprint(base)


class TestKillDashNine:
    def test_sigkill_drill_reproduces_uninterrupted_records(self, tmp_path):
        """End-to-end: SIGKILL a real daemon process, resume, compare logs."""
        repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        script = os.path.join(repo, "examples", "streaming_daemon.py")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src")
        env["CHAOS_SEED"] = "0"
        result = subprocess.run(
            [sys.executable, script, "--drill", "--samples", "12", "--kill-after", "4"],
            env=env,
            cwd=str(tmp_path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "bit-identical" in result.stdout
