"""Versioned checkpoint/restore for the streaming daemon.

A checkpoint (format 4) is a single ``.npz`` file holding the mutable
state of a :class:`~repro.streaming.daemon.StreamingEstimator` and nothing
else: the counter tracker's four state arrays and its counts, and the last
estimate, plus a JSON metadata blob carrying the format version, the
daemon's four constructor options, its scalar state and a fingerprint of
the routing matrix the state was computed under (format 3 also carried an
iteration budget and a retry count for the re-solve chain).  It holds no
object names: the fingerprint pins the link and pair orderings, and those
fix the counter names (see
:func:`~repro.measurement.collector.counter_names`).
At N=200 (39,800 demands, 600 links) a checkpoint is about 1.33 MB.

Floats travel as raw binary inside the ``.npz`` arrays, so a restore is
*exact*: a daemon killed mid-stream and restored from its last checkpoint
continues producing records bit-identical to the uninterrupted run
(the daemon itself consults neither wall-clock time nor randomness).

A save writes a temporary file next to the target and renames it over the
target, so a process killed mid-save leaves the previous checkpoint whole.

Restores are defensive: a version the running code does not understand, a
truncated or otherwise unreadable file, a routing matrix whose fingerprint
differs from the checkpoint's, an estimate with the wrong pair count, or a
configuration that cannot be reconstructed all raise :class:`~repro.errors.StreamingError` instead of
silently resuming on the wrong state.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from typing import TYPE_CHECKING

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
]

CHECKPOINT_VERSION = 4

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

#: The arrays of a checkpoint, besides ``meta``.
_ARRAYS = (
    "tracker_have_last",
    "tracker_last_counter",
    "tracker_last_response",
    "tracker_rate",
    "tracker_counts",
    "estimate",
)


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
        # Writing through an open handle keeps the exact path (np.savez
        # would otherwise append ``.npz``).
        with os.fdopen(descriptor, "wb") as handle:
            np.savez(handle, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def load_checkpoint(path: str) -> tuple[dict, dict]:
    """Read ``path`` back into ``(meta, arrays)``, validating version and members.

    A file that is not a whole checkpoint of this version (missing,
    truncated, corrupt, another version, or short of a member) raises
    :class:`~repro.errors.StreamingError`.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            if "meta" not in data:
                raise StreamingError(f"{path!r} is not a streaming checkpoint")
            meta = json.loads(str(data["meta"]))
            arrays = {key: data[key] for key in data.files if key != "meta"}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise StreamingError(f"cannot read checkpoint {path!r}: {exc}") from exc
    version = meta.get("version")
    if version != CHECKPOINT_VERSION:
        raise StreamingError(
            f"checkpoint {path!r} has version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    missing = [key for key in _ARRAYS if key not in arrays]
    if missing:
        raise StreamingError(f"checkpoint {path!r} lacks {', '.join(missing)}")
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
    state = meta["state"]
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

    estimate = np.asarray(arrays["estimate"], dtype=float)
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
