"""Versioned checkpoint/restore for the streaming daemon.

A checkpoint (format 5) is one file holding the mutable state of a
:class:`~repro.streaming.daemon.StreamingEstimator` and nothing else: the
counter tracker's four state arrays and its counts, and the last
estimate, plus a JSON header carrying the format version, the daemon's
four constructor options, its scalar state and a fingerprint of the
routing matrix the state was computed under.  It holds no object names:
the fingerprint pins the link and pair orderings, and those fix the
counter names (see :func:`~repro.measurement.collector.counter_names`).

The layout is a fixed 16-byte prefix (an 8-byte magic, then the header's
length and its CRC-32 as little-endian ``uint32``), the JSON header, and
the body: the six arrays raw, each starting on a 64-byte boundary.  The
header lists each array's name, dtype, shape, offset in the body and byte
count, the body's length and the body's CRC-32, so a restore reads the
file once, checks both checksums and views every array in place with
:func:`numpy.frombuffer`.  At N=200 (39,800 demands, 600 links) a
checkpoint is about 1.33 MB.  Formats 1 to 4 were ``.npz`` archives.

Floats travel as raw binary, so a restore is *exact*: a daemon killed
mid-stream and restored from its last checkpoint continues producing
records bit-identical to the uninterrupted run (the daemon itself
consults neither wall-clock time nor randomness).

A save writes a temporary file next to the target and renames it over the
target, so a process killed mid-save leaves the previous checkpoint whole.

Restores are defensive: a bad magic, a header that does not parse or
lacks a key (its own or one of the daemon state's), a body whose length
or CRC-32 differs from the header's, a missing array, an array of the
wrong dtype or length, a version the running code does not understand
(an ``.npz`` file of formats 1 to 4 is named as such), a routing matrix
whose fingerprint differs from the checkpoint's, or a configuration that
cannot be reconstructed all raise :class:`~repro.errors.StreamingError`
instead of silently resuming on the wrong state.  The header's CRC-32
covers the scalar state, which the ``.npz`` archives' per-member CRC-32
also covered: a flipped bit in a digit of ``rounds_seen`` would otherwise
resume at the wrong round.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from typing import TYPE_CHECKING, BinaryIO

import numpy as np

from repro.errors import StreamingError
from repro.routing.routing_matrix import RoutingMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.streaming.daemon import StreamingEstimator

__all__ = [
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "restore_daemon",
    "write_checkpoint",
]

CHECKPOINT_VERSION = 5

_STATE_FIELDS = (
    "rounds_seen",
    "sequence",
    "epoch",
    "stale_streak",
    "stale_polls",
    "degraded_updates",
    "watchdog_checks",
    "watchdog_resolves",
)
#: The keys of a checkpoint's ``state``.
_STATE_KEYS = _STATE_FIELDS + ("has_estimate", "failed_links", "failed_nodes")

#: The arrays a checkpoint must hold.
_ARRAYS = (
    "tracker_have_last",
    "tracker_last_counter",
    "tracker_last_response",
    "tracker_rate",
    "tracker_counts",
    "estimate",
)

#: The fixed prefix: magic, header length, header CRC-32.
_MAGIC = b"\x89RCKPT\r\n"
_PREFIX = struct.Struct("<8sII")
#: The body and each array in it start on a multiple of this many bytes.
_ALIGN = 64
#: Keys of the header that describe the body rather than the daemon.
_LAYOUT_KEYS = ("arrays", "body_length", "body_crc32")
#: Keys of the daemon's meta that a header must carry.
_META_KEYS = ("version", "config", "state", "routing_fingerprint")
#: How formats 1 to 4 (``.npz`` zip archives) begin.
_ZIP_MAGIC = b"PK\x03\x04"


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def write_checkpoint(handle: BinaryIO, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``meta`` and ``arrays`` to the binary ``handle`` in format 5.

    ``meta`` is the JSON-safe daemon description (``version``, ``config``,
    ``state``, ``routing_fingerprint``); the header adds the array table,
    the body length and the body's CRC-32.  Arrays are written in C order.
    """
    table = {}
    pieces = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        start = _aligned(offset)
        if start > offset:
            pieces.append(bytes(start - offset))
        table[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": start,
            "nbytes": array.nbytes,
        }
        pieces.append(array.reshape(-1).view(np.uint8))
        offset = start + array.nbytes
    body_crc = 0
    for piece in pieces:
        body_crc = zlib.crc32(piece, body_crc)
    header = dict(meta, arrays=table, body_length=offset, body_crc32=body_crc)
    encoded = json.dumps(header, sort_keys=True).encode()
    # Pad the header with spaces so the body starts on an aligned offset.
    encoded += b" " * (_aligned(_PREFIX.size + len(encoded)) - _PREFIX.size - len(encoded))
    handle.write(_PREFIX.pack(_MAGIC, len(encoded), zlib.crc32(encoded)))
    handle.write(encoded)
    for piece in pieces:
        handle.write(piece)


def save_checkpoint(daemon: "StreamingEstimator", path: str) -> None:
    """Write the daemon's full state to ``path`` (exact path, no suffixing).

    The state goes to a temporary file in ``path``'s directory, which then
    replaces ``path`` in one rename; on any error the temporary file is
    removed and ``path`` is left as it was.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": daemon.config(),
        "state": {
            **{name: int(getattr(daemon, name)) for name in _STATE_FIELDS},
            "has_estimate": daemon.estimate is not None,
            "failed_links": sorted(daemon.failed_links),
            "failed_nodes": sorted(daemon.failed_nodes),
        },
        "routing_fingerprint": daemon.routing.fingerprint(),
    }
    arrays = dict(daemon.tracker.state_arrays())
    arrays["estimate"] = (
        np.zeros(daemon.routing.num_pairs)
        if daemon.estimate is None
        else daemon.estimate
    )
    directory, name = os.path.split(os.path.abspath(path))
    descriptor, temporary = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            write_checkpoint(handle, meta, arrays)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def _corrupt(path: str, reason: str) -> StreamingError:
    return StreamingError(f"cannot read checkpoint {path!r}: {reason}")


def load_checkpoint(path: str) -> tuple[dict, dict]:
    """Read ``path`` back into ``(meta, arrays)``, validating it whole.

    ``meta`` is the daemon description :func:`write_checkpoint` was given;
    the arrays are read-only views over the file's bytes.  A file that is
    not a whole, uncorrupted checkpoint of this version (missing,
    truncated, failing a checksum, another version or format, or short of
    an array) raises :class:`~repro.errors.StreamingError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _corrupt(path, str(exc)) from exc
    if data.startswith(_ZIP_MAGIC):
        raise StreamingError(
            f"checkpoint {path!r} is an .npz checkpoint of format 4 or older; "
            f"this build reads format {CHECKPOINT_VERSION}"
        )
    if len(data) < _PREFIX.size or not data.startswith(_MAGIC):
        raise _corrupt(path, "bad magic (not a streaming checkpoint)")
    _, header_length, header_crc = _PREFIX.unpack_from(data)
    body_start = _PREFIX.size + header_length
    if body_start > len(data):
        raise _corrupt(
            path,
            f"header length {header_length} points past the end of the "
            f"{len(data)}-byte file",
        )
    encoded = memoryview(data)[_PREFIX.size : body_start]
    if zlib.crc32(encoded) != header_crc:
        raise _corrupt(path, "header CRC-32 mismatch")
    try:
        header = json.loads(bytes(encoded))
    except ValueError as exc:
        raise _corrupt(path, f"header does not parse ({exc})") from exc
    if not isinstance(header, dict):
        raise _corrupt(path, "header is not a JSON object")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise StreamingError(
            f"checkpoint {path!r} has version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    for key in _META_KEYS + _LAYOUT_KEYS:
        if key not in header:
            raise _corrupt(path, f"header lacks {key!r}")
    body = memoryview(data)[body_start:]
    if len(body) != header["body_length"]:
        raise _corrupt(
            path, f"body is {len(body)} bytes, header says {header['body_length']}"
        )
    if zlib.crc32(body) != header["body_crc32"]:
        raise _corrupt(path, "body CRC-32 mismatch")
    table = header["arrays"]
    if not isinstance(table, dict):
        raise _corrupt(path, "header's array table is not a JSON object")
    missing = [name for name in _ARRAYS if name not in table]
    if missing:
        raise StreamingError(f"checkpoint {path!r} lacks {', '.join(missing)}")
    arrays = {}
    for name, entry in table.items():
        try:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(size) for size in entry["shape"])
            count = int(np.prod(shape, dtype=np.int64))
            offset = int(entry["offset"])
            if count * dtype.itemsize != entry["nbytes"] or not (
                0 <= offset <= offset + entry["nbytes"] <= len(body)
            ):
                raise ValueError("extent does not fit the body")
            arrays[name] = np.frombuffer(body, dtype=dtype, count=count, offset=offset).reshape(
                shape
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise _corrupt(path, f"bad entry for array {name!r} ({exc})") from exc
    meta = {key: value for key, value in header.items() if key not in _LAYOUT_KEYS}
    return meta, arrays


def restore_daemon(path: str, routing: RoutingMatrix) -> "StreamingEstimator":
    """Reconstruct a daemon from a checkpoint and the *base* routing matrix.

    ``routing`` must be the same base mesh the checkpointing daemon was
    constructed with; recorded topology failures are re-applied with
    :func:`~repro.routing.reroute` and the resulting matrix is verified
    against the checkpoint's fingerprint before any state is adopted.  A
    recorded failure set that cannot be replayed (it names an element the
    routing's network lacks) raises :class:`~repro.errors.StreamingError`.
    """
    from repro.streaming.daemon import StreamingEstimator

    meta, arrays = load_checkpoint(path)
    state = meta["state"] if isinstance(meta["state"], dict) else {}
    missing = [key for key in _STATE_KEYS if key not in state]
    if missing:
        raise StreamingError(f"checkpoint {path!r} state lacks {', '.join(missing)}")
    try:
        daemon = StreamingEstimator(routing=routing, **meta["config"])
    except TypeError as exc:
        raise StreamingError(
            f"checkpoint {path!r} has a configuration this build cannot rebuild: {exc}"
        ) from exc

    daemon.failed_links = set(state["failed_links"])
    daemon.failed_nodes = set(state["failed_nodes"])
    if daemon.failed_links or daemon.failed_nodes:
        daemon.routing, _ = daemon._reroute(daemon.failed_links, daemon.failed_nodes)
    if daemon.routing.fingerprint() != meta["routing_fingerprint"]:
        raise StreamingError(
            f"checkpoint {path!r} was taken under a different routing matrix "
            "(fingerprint mismatch); restore with the daemon's base routing"
        )

    estimate = arrays["estimate"]
    if estimate.dtype != np.float64 or estimate.ndim != 1:
        raise StreamingError(
            f"checkpoint {path!r} holds estimate as {estimate.dtype} "
            f"of shape {estimate.shape}, expected a float64 vector"
        )
    if estimate.shape != (routing.num_pairs,):
        raise StreamingError(
            f"checkpoint covers {estimate.shape[0]} pairs, "
            f"routing has {routing.num_pairs}"
        )
    for name in _STATE_FIELDS:
        setattr(daemon, name, int(state[name]))
    daemon.tracker.load_state_arrays(arrays)
    daemon.estimate = estimate.copy() if state["has_estimate"] else None
    return daemon
