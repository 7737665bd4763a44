"""Op accounting for the benchmark: failure classification and tail percentiles.

Kept free of ``repro`` imports so the rules can be tested on planted values.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Optional, Sequence

import numpy as np

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def failure_reason(
    result: Any = None,
    *,
    error: Optional[BaseException] = None,
    skipped: bool = False,
    record: Any = None,
) -> Optional[str]:
    """Why one op failed, or ``None`` when it succeeded.

    ``result`` is an estimation result (``.vector`` and ``.diagnostics``),
    ``record`` a streaming record (``.estimate``, ``.converged``,
    ``.degraded``, ``.stale``).  An op fails when it raised, its spec was
    skipped, the solver reported ``converged=False``, a poll record is
    degraded or stale, or the estimate is non-finite or negative.  A solve
    that stops at its iteration cap is a failure, never a timing.  A failed
    correctness check is counted with :meth:`Tally.fail`.
    """
    if error is not None:
        return f"raised {type(error).__name__}"
    if skipped:
        return "skipped"
    if record is not None:
        if record.degraded:
            return "degraded"
        if record.stale:
            return "stale"
        vector, converged = record.estimate, record.converged
    else:
        vector, converged = result.vector, result.diagnostics.get("converged")
    if converged is not None and not converged:
        return "not converged"
    values = np.asarray(vector, dtype=float)
    if not np.isfinite(values).all():
        return "non-finite estimate"
    if (values < 0).any():
        return "negative estimate"
    return None


class Tally:
    """Ops attempted and failed, with a count per failure reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: Counter[str] = Counter()

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    def add(self, label: str, reason: Optional[str]) -> None:
        """Count one attempted op, failed when ``reason`` is not ``None``."""
        self.attempted += 1
        if reason is not None:
            self.fail(label, reason)

    def fail(self, label: str, reason: str) -> None:
        """Count a failure against an op already attempted (a failed check)."""
        self.reasons[f"{label}: {reason}"] += 1


def min_samples_for(percentile: float) -> int:
    """Smallest sample count leaving :data:`MIN_TAIL_SAMPLES` beyond ``percentile``."""
    return math.ceil(MIN_TAIL_SAMPLES / (1.0 - percentile / 100.0) - 1e-9)


def tail_percentile(samples: Sequence[float], percentile: float) -> float:
    """``percentile`` of ``samples``, refusing a tail resting on too few samples."""
    needed = min_samples_for(percentile)
    if len(samples) < needed:
        raise ValueError(
            f"p{percentile:g} needs {needed} samples to leave {MIN_TAIL_SAMPLES} "
            f"beyond it, got {len(samples)}"
        )
    return float(np.percentile(np.asarray(samples, dtype=float), percentile))
