"""Structured failure and degradation reporting.

These records replace the bare ``None`` estimates and silently-swallowed
exceptions that used to be the repo's only failure signal.  They are plain
frozen dataclasses of strings/ints so they pickle cheaply through pool
tasks and compare by value — which is what keeps serial and parallel runs
producing *identical* records even when things go wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["FailureReason", "DegradationEvent", "DegradationReport"]


@dataclass(frozen=True)
class FailureReason:
    """Why one attempt (a spec or a fallback step) failed.

    Attributes
    ----------
    exception:
        The exception class name (``"EstimationError"``), not the instance —
        instances do not reliably compare equal across pickling.
    message:
        ``str(exc)`` of the failure.
    spec:
        Human-readable identifier of what failed: a method-spec label or a
        fallback step name.
    stage:
        Pipeline stage that observed the failure (``"construct"``,
        ``"estimate"``, ``"budget"`` ...).
    """

    exception: str
    message: str
    spec: str = ""
    stage: str = "estimate"

    @classmethod
    def from_exception(
        cls, exc: BaseException, spec: str = "", stage: str = "estimate"
    ) -> "FailureReason":
        return cls(
            exception=type(exc).__name__,
            message=str(exc),
            spec=spec,
            stage=stage,
        )

    def describe(self) -> str:
        prefix = f"{self.spec}: " if self.spec else ""
        return f"{prefix}{self.exception}: {self.message}"


@dataclass(frozen=True)
class DegradationEvent:
    """One thing that went wrong (or was worked around) during a run."""

    stage: str
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class DegradationReport:
    """What a supervised run actually did versus what was asked.

    ``requested`` names the primary method, ``used`` the method whose
    estimate was returned; they differ exactly when a fallback ran.
    ``attempts`` counts every estimation attempt, including retries.
    ``events`` records each failure/fallback in order.
    """

    requested: str
    used: str
    attempts: int = 1
    events: tuple[DegradationEvent, ...] = field(default_factory=tuple)

    @property
    def degraded(self) -> bool:
        return self.used != self.requested or bool(self.events)

    def to_dict(self) -> dict[str, Any]:
        """A plain-dict form for estimator diagnostics (picklable, == by value)."""
        return {
            "requested": self.requested,
            "used": self.used,
            "attempts": self.attempts,
            "degraded": self.degraded,
            "events": [
                {"stage": e.stage, "kind": e.kind, "detail": e.detail}
                for e in self.events
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DegradationReport":
        return cls(
            requested=str(data["requested"]),
            used=str(data["used"]),
            attempts=int(data.get("attempts", 1)),
            events=tuple(
                DegradationEvent(
                    stage=str(e.get("stage", "")),
                    kind=str(e.get("kind", "")),
                    detail=str(e.get("detail", "")),
                )
                for e in data.get("events", ())
            ),
        )

    def describe(self) -> str:
        if not self.degraded:
            return f"{self.used}: clean run"
        parts = [f"requested={self.requested}", f"used={self.used}"]
        parts.extend(f"{e.stage}/{e.kind}: {e.detail}" for e in self.events)
        return "; ".join(parts)


def degradation_from_diagnostics(
    diagnostics: dict[str, Any],
) -> Optional[DegradationReport]:
    """Recover a report from estimator diagnostics, if one was recorded."""
    data = diagnostics.get("degradation")
    if not isinstance(data, dict):
        return None
    return DegradationReport.from_dict(data)
