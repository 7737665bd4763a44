"""Versioned checkpoint/restore for the streaming daemon.

A checkpoint is a single ``.npz`` file holding the *entire* mutable state
of a :class:`~repro.streaming.daemon.StreamingEstimator` — counter-tracker
arrays, warm estimate, pending invalidations, the measurement ring buffer
and every counter — plus a JSON metadata blob carrying the format version,
the daemon's configuration, and a fingerprint of the routing matrix the
state was computed under.

Floats travel as raw binary inside the ``.npz`` arrays, so a restore is
*exact*: a daemon killed mid-stream and restored from its last checkpoint
continues producing records bit-identical to the uninterrupted run
(the daemon itself consults neither wall-clock time nor randomness).

Restores are defensive: a version the running code does not understand, a
routing matrix whose fingerprint differs from the checkpoint's, or a
configuration that cannot be reconstructed all raise
:class:`~repro.errors.StreamingError` instead of silently resuming on the
wrong state.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import StreamingError
from repro.routing.routing_matrix import RoutingMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.streaming.daemon import StreamingEstimator

__all__ = [
    "CHECKPOINT_VERSION",
    "routing_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "restore_daemon",
]

CHECKPOINT_VERSION = 1

_STATE_FIELDS = (
    "rounds_seen",
    "sequence",
    "epoch",
    "stale_streak",
    "since_watchdog",
    "stale_polls",
    "degraded_updates",
    "watchdog_checks",
    "watchdog_resolves",
    "invalidated_total",
)


def routing_fingerprint(routing: RoutingMatrix) -> str:
    """Content hash of a routing matrix.

    The canonical CSR arrays are hashed together with the link and pair
    orderings (see :meth:`RoutingMatrix.fingerprint`, which computes it
    once per matrix).  Identical routing state yields the same fingerprint
    however the matrix was built, so a checkpoint restores onto any
    routing equal to the one it was written against.
    """
    return routing.fingerprint()


def save_checkpoint(daemon: "StreamingEstimator", path: str) -> None:
    """Write the daemon's full state to ``path`` (exact path, no suffixing)."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": daemon.config(),
        "state": {
            **{name: int(getattr(daemon, name)) for name in _STATE_FIELDS},
            "watchdog_forced": bool(daemon.watchdog_forced),
            "has_estimate": daemon.estimate is not None,
            "failed_links": sorted(daemon.failed_links),
            "failed_nodes": sorted(daemon.failed_nodes),
            "ring_count": int(daemon._ring_count),
            "ring_pos": int(daemon._ring_pos),
        },
        "routing_fingerprint": routing_fingerprint(daemon.routing),
    }
    arrays = dict(daemon.tracker.state_arrays())
    arrays["pending_invalid"] = daemon.pending_invalid
    arrays["estimate"] = (
        np.zeros(daemon.routing.num_pairs)
        if daemon.estimate is None
        else daemon.estimate
    )
    arrays["ring_times"] = daemon._ring_times
    arrays["ring_rates"] = daemon._ring_rates
    arrays["ring_valid"] = daemon._ring_valid
    # Writing through an open handle keeps the exact path (np.savez would
    # otherwise append ``.npz``), which lets callers checkpoint atomically
    # via rename from a temp file.
    with open(path, "wb") as handle:
        np.savez(handle, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_checkpoint(path: str) -> tuple[dict, dict]:
    """Read ``path`` back into ``(meta, arrays)``, validating the version."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if "meta" not in data:
                raise StreamingError(f"{path!r} is not a streaming checkpoint")
            meta = json.loads(str(data["meta"]))
            arrays = {key: data[key] for key in data.files if key != "meta"}
    except (OSError, ValueError) as exc:
        raise StreamingError(f"cannot read checkpoint {path!r}: {exc}") from exc
    version = meta.get("version")
    if version != CHECKPOINT_VERSION:
        raise StreamingError(
            f"checkpoint {path!r} has version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
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
    config = meta["config"]
    state = meta["state"]
    daemon = StreamingEstimator(routing=routing, **config)

    daemon.failed_links = set(state["failed_links"])
    daemon.failed_nodes = set(state["failed_nodes"])
    if daemon.failed_links or daemon.failed_nodes:
        daemon.routing, _ = daemon._reroute(daemon.failed_links, daemon.failed_nodes)
    fingerprint = routing_fingerprint(daemon.routing)
    if fingerprint != meta["routing_fingerprint"]:
        raise StreamingError(
            f"checkpoint {path!r} was taken under a different routing matrix "
            "(fingerprint mismatch); restore with the daemon's base routing"
        )

    for name in _STATE_FIELDS:
        setattr(daemon, name, int(state[name]))
    daemon.watchdog_forced = bool(state["watchdog_forced"])
    daemon.tracker.load_state_arrays(arrays)
    pending = np.asarray(arrays["pending_invalid"], dtype=bool)
    if pending.shape != (routing.num_pairs,):
        raise StreamingError(
            f"checkpoint covers {pending.shape[0]} pairs, "
            f"routing has {routing.num_pairs}"
        )
    daemon.pending_invalid = pending.copy()
    daemon.estimate = (
        np.asarray(arrays["estimate"], dtype=float).copy()
        if state["has_estimate"]
        else None
    )
    daemon._ring_times = np.asarray(arrays["ring_times"], dtype=float).copy()
    daemon._ring_rates = np.asarray(arrays["ring_rates"], dtype=float).copy()
    daemon._ring_valid = np.asarray(arrays["ring_valid"], dtype=bool).copy()
    daemon._ring_count = int(state["ring_count"])
    daemon._ring_pos = int(state["ring_pos"])
    return daemon
