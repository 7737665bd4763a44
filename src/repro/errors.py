"""Exception hierarchy for the ``repro`` traffic-matrix estimation library.

Every error raised by the library derives from :class:`ReproError`, so
applications embedding the library can catch a single base class.  More
specific subclasses communicate *which* subsystem rejected the input: the
topology model, the routing substrate, the traffic/measurement generators,
the numerical solvers or the estimation methods themselves.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TopologyError(ReproError):
    """Raised when a network topology is malformed or inconsistent.

    Examples include duplicate node or link identifiers, links referencing
    unknown nodes, non-positive capacities, or a network in which some
    demand has no path.
    """


class RoutingError(ReproError):
    """Raised when routing cannot be computed.

    Typical causes are a disconnected topology (no path between a source and
    destination that must communicate), a CSPF request that cannot be placed
    because no path has the required free bandwidth, or an attempt to build a
    routing matrix from paths that traverse unknown links.
    """


class TrafficError(ReproError):
    """Raised when traffic-matrix data is invalid.

    Examples include negative demands, a traffic matrix whose shape does not
    match the node set of the network, or a time series whose snapshots have
    inconsistent dimensions.
    """


class MeasurementError(ReproError):
    """Raised when measured data (link loads, SNMP samples) is inconsistent.

    Examples include a link-load vector whose length does not match the
    routing matrix, or a polling schedule with a non-positive interval.
    """


class EstimationError(ReproError):
    """Raised when an estimation method receives invalid input or fails.

    Examples include dimension mismatches between the routing matrix, the
    link-load vector and the prior, non-positive regularisation parameters,
    or an optimisation subproblem that does not converge.
    """


class PlanningError(ReproError):
    """Raised when a traffic-engineering planning query is invalid.

    Examples include failure cases referencing unknown links or nodes, a
    load projection whose traffic matrix does not match the routing matrix's
    pair ordering, or a failure sweep asked to score a method that produced
    no estimate.
    """


class StreamingError(ReproError):
    """Raised by the streaming estimation daemon on invalid input or state.

    Examples include poll rounds whose object set does not match the
    daemon's configuration, a checkpoint whose version or fingerprint does
    not match the restoring process, or an attempt to resume a stream at a
    round the checkpoint has already consumed.
    """


class SolverError(ReproError):
    """Raised by the numerical substrate when an optimisation problem fails.

    This covers infeasible linear programs, a Hessian or Newton system that
    cannot be Cholesky-factorised (Vardi's moment fit, the dual kernel), and
    failures reported by SciPy's active-set NNLS.
    """


class BudgetExceededError(SolverError):
    """Raised when a cooperative :class:`repro.resilience.SolverBudget` runs out.

    Solver loops call :func:`repro.resilience.budget_tick` once per
    iteration; when the innermost active budget has exhausted its wall-clock
    or iteration allowance the tick raises this error, which the
    :class:`~repro.resilience.SupervisedEstimator` treats like any other
    solver failure (it falls back down the chain).

    The structured accounting rides along so degradation records are
    actionable: ``elapsed_seconds`` and ``ticks`` say how much the attempt
    consumed, ``max_seconds`` / ``max_iterations`` echo the configured
    limits (``None`` for an unbounded dimension).  The message carries the
    same numbers, so the detail survives pickling across process pools
    (exception pickling keeps only ``args``).
    """

    def __init__(
        self,
        message: str = "solver budget exceeded",
        *,
        elapsed_seconds: "float | None" = None,
        ticks: "int | None" = None,
        max_seconds: "float | None" = None,
        max_iterations: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds
        self.ticks = ticks
        self.max_seconds = max_seconds
        self.max_iterations = max_iterations

    def budget_details(self) -> dict[str, "float | int | None"]:
        """The structured accounting as a dict (for reports and spans)."""
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "ticks": self.ticks,
            "max_seconds": self.max_seconds,
            "max_iterations": self.max_iterations,
        }
