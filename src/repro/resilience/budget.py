"""Cooperative solver budgets.

A :class:`SolverBudget` bounds how long an estimation attempt may run —
wall-clock seconds, iterations, or both — without threads, signals or
subprocess machinery.  The budget is *cooperative*: the inner solver loops
(each dual evaluation of the entropy/Bayesian Newton kernel, the pivot
rounds of the Bayesian batch NNLS, each IPF sweep) call
:func:`budget_tick` once per iteration, and the tick raises
:class:`~repro.errors.BudgetExceededError` when the innermost active budget
is spent.  When no budget is active the tick is a cheap no-op, so the
solvers pay nothing outside supervised runs.

Budgets nest on a thread-local stack; the innermost one wins.  That lets a
:class:`~repro.resilience.SupervisedEstimator` give each fallback attempt
its own allowance even when the caller already runs under a wider budget.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import BudgetExceededError
from repro.telemetry.metrics import record_iterations
from repro.telemetry.spans import _STATE as _TELEMETRY

__all__ = ["SolverBudget", "current_budget", "budget_tick"]


class _BudgetStack(threading.local):
    def __init__(self) -> None:
        self.stack: list["SolverBudget"] = []


_ACTIVE = _BudgetStack()


class SolverBudget:
    """Context manager bounding a solver run by time and/or iterations.

    Parameters
    ----------
    max_seconds:
        Wall-clock allowance measured with ``time.monotonic``; ``None``
        means unbounded.
    max_iterations:
        Total :func:`budget_tick` counts allowed across every solver loop
        that runs under this budget; ``None`` means unbounded.
    """

    def __init__(
        self,
        max_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
    ) -> None:
        if max_seconds is not None and max_seconds <= 0:
            raise ValueError("max_seconds must be positive (or None)")
        if max_iterations is not None and max_iterations <= 0:
            raise ValueError("max_iterations must be positive (or None)")
        self.max_seconds = max_seconds
        self.max_iterations = max_iterations
        self.ticks = 0
        self._started: Optional[float] = None

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "SolverBudget":
        self._started = time.monotonic()
        self.ticks = 0
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        stack = _ACTIVE.stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # tolerate out-of-order exits rather than corrupting the stack
            try:
                stack.remove(self)
            except ValueError:
                pass

    # -- accounting -----------------------------------------------------

    def elapsed(self) -> float:
        if self._started is None:
            return 0.0
        return time.monotonic() - self._started

    def exhausted_reason(self) -> Optional[str]:
        """Why the budget is spent, or ``None`` while allowance remains."""
        if self.max_iterations is not None and self.ticks >= self.max_iterations:
            return f"iteration budget exhausted ({self.ticks} >= {self.max_iterations})"
        if self.max_seconds is not None and self.elapsed() >= self.max_seconds:
            return (
                f"time budget exhausted ({self.elapsed():.3f}s >= "
                f"{self.max_seconds:.3f}s)"
            )
        return None

    def tick(self, count: int = 1) -> None:
        self.ticks += count
        reason = self.exhausted_reason()
        if reason is not None:
            elapsed = self.elapsed()
            # The *message* (which lands in DegradationReport details and
            # must stay identical between serial and parallel runs) only
            # mentions wall-clock for time trips, where the trip itself is
            # already timing-dependent; iteration trips keep a fully
            # deterministic message.  The structured attributes always
            # carry the measured elapsed seconds for in-process consumers.
            consumed = f"consumed {self.ticks} ticks"
            if reason.startswith("time budget"):
                consumed = f"consumed {self.ticks} ticks in {elapsed:.3f}s"
            limits = (
                f"max_seconds={self.max_seconds!r}, "
                f"max_iterations={self.max_iterations!r}"
            )
            raise BudgetExceededError(
                f"solver budget exceeded: {reason}; {consumed} (limits: {limits})",
                elapsed_seconds=elapsed,
                ticks=self.ticks,
                max_seconds=self.max_seconds,
                max_iterations=self.max_iterations,
            )


def current_budget() -> Optional[SolverBudget]:
    """The innermost active budget on this thread, or ``None``."""
    stack = _ACTIVE.stack
    return stack[-1] if stack else None


def budget_tick(count: int = 1) -> None:
    """Charge ``count`` iterations against the innermost active budget.

    A no-op when no budget is active, so unsupervised solver runs pay only
    an attribute lookup and a truthiness check per iteration.

    The tick call sites double as the telemetry layer's iteration probes:
    when telemetry is enabled each tick also feeds the
    ``solver.iterations`` counter and the innermost open span, so traces
    show how many iterations every solve burned without a second set of
    hooks in the hot loops.
    """
    stack = _ACTIVE.stack
    if stack:
        stack[-1].tick(count)
    if _TELEMETRY.enabled:
        record_iterations(count)
