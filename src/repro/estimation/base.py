"""Common interfaces of the traffic-matrix estimation methods.

Every method in the paper consumes the same observable data — the routing
matrix and link-load measurements (a single snapshot or a time series),
possibly augmented with edge-node totals — and produces an estimated demand
vector.  This module defines:

* :class:`EstimationProblem` — the immutable bundle of observations handed
  to an estimator;
* :class:`EstimationResult` — the estimate plus method metadata and
  diagnostics;
* :class:`SeriesEstimationResult` — a batch of per-snapshot estimates
  produced by :meth:`Estimator.estimate_series`;
* :class:`Estimator` — the abstract interface (``estimate(problem)`` for a
  snapshot, ``estimate_series(problem)`` for a whole series) implemented by
  every method in :mod:`repro.estimation`.

The batched path matters at scale: ``estimate_series`` has a generic
per-snapshot fallback, but estimators override it where one factorisation
or one vectorised expression serves all ``K`` right-hand sides (Bayesian
factors its normal equations once; gravity and Kruithof evaluate every
snapshot's totals in single array operations).
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np
import scipy.sparse

from repro import telemetry
from repro.errors import EstimationError
from repro.routing.routing_matrix import RoutingMatrix
from repro.topology.elements import PairIndex
from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "EstimationProblem",
    "EstimationResult",
    "SeriesEstimationResult",
    "Estimator",
]


def _edge_totals(
    values: Any, labels: tuple[str, ...], shape: tuple[int, ...], name: str
) -> Optional[np.ndarray]:
    """``values`` as a read-only float array of ``shape``, labels on the last axis.

    ``values`` is ``None``, an array already in label order or, for the
    one-dimensional snapshot totals only, a mapping covering every label
    (extra keys are ignored).
    """
    if values is None:
        return None
    if isinstance(values, Mapping):
        if len(shape) != 1:
            raise EstimationError(f"{name} must be an array in label order, not a mapping")
        missing = [label for label in labels if label not in values]
        if missing:
            raise EstimationError(f"{name} missing for {missing}")
        values = [values[label] for label in labels]
    array = np.array(values, dtype=float)
    if array.shape != shape:
        raise EstimationError(f"{name} has shape {array.shape}, expected {shape}")
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class EstimationProblem:
    """Observable inputs to a traffic-matrix estimation method.

    Edge totals are plain vectors over the labels of the routing's shared
    pair index: the origins (destinations) of ``routing.pairs.codes()`` in
    first-appearance order.  A ``name -> total`` mapping, such as
    :meth:`TrafficMatrix.origin_totals`, is converted once here; every
    estimator then reads arrays.

    Attributes
    ----------
    routing:
        The routing matrix ``R`` (links x pairs).
    link_loads:
        A single snapshot ``t`` of link loads (length ``L``).  Methods that
        work from a snapshot (gravity, Bayesian, entropy, worst-case bounds)
        use this field.
    link_load_series:
        Optional time series of link loads, shape ``(K, L)``.  Methods that
        need a series (fanout estimation, Vardi) use this field; when it is
        present but ``link_loads`` is not, the snapshot defaults to the
        series mean.
    origin_totals:
        Optional per-origin total ingress traffic ``t_e(n)`` for the
        snapshot, shape ``(N_origins,)``.  Gravity models and Kruithof need
        these; they are observable from the access links of each PoP.  A
        mapping must cover every origin (extra keys are ignored).
    destination_totals:
        Optional per-destination total egress traffic ``t_x(m)``, shape
        ``(N_destinations,)``; a mapping is converted like ``origin_totals``.
    origin_totals_series:
        Optional time series of per-origin totals, shape ``(K, N_origins)``
        with ``K`` the rows of ``link_load_series``; used by fanout
        estimation and by the batched gravity/Kruithof paths.
    destination_totals_series:
        Optional time series of per-destination totals, shape
        ``(K, N_destinations)``; used by the batched gravity/Kruithof paths.
    """

    routing: RoutingMatrix
    link_loads: Optional[np.ndarray] = None
    link_load_series: Optional[np.ndarray] = None
    origin_totals: Optional[np.ndarray] = None
    destination_totals: Optional[np.ndarray] = None
    origin_totals_series: Optional[np.ndarray] = None
    destination_totals_series: Optional[np.ndarray] = None
    # Lazy per-problem cache (excluded from init/repr/eq; the frozen
    # dataclass machinery still initialises it via object.__setattr__).
    _shared_cache: dict[tuple, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        num_links = self.routing.num_links
        if self.link_loads is not None:
            loads = np.asarray(self.link_loads, dtype=float)
            if loads.shape != (num_links,):
                raise EstimationError(
                    f"link_loads has shape {loads.shape}, expected ({num_links},)"
                )
            if np.any(loads < -1e-9):
                raise EstimationError("link loads must be non-negative")
            object.__setattr__(self, "link_loads", np.maximum(loads, 0.0))
        if self.link_load_series is not None:
            series = np.asarray(self.link_load_series, dtype=float)
            if series.ndim != 2 or series.shape[1] != num_links:
                raise EstimationError(
                    f"link_load_series has shape {series.shape}, expected (K, {num_links})"
                )
            if np.any(series < -1e-9):
                raise EstimationError("link load series must be non-negative")
            object.__setattr__(self, "link_load_series", np.maximum(series, 0.0))
        if self.link_loads is None and self.link_load_series is None:
            raise EstimationError("an estimation problem needs link loads or a series of them")
        if self.link_load_series is None and (
            self.origin_totals_series is not None or self.destination_totals_series is not None
        ):
            raise EstimationError("edge-total series require a link_load_series")
        origins, destinations, _, _ = self.pair_positions()
        for name, labels, shape in (
            ("origin_totals", origins, (len(origins),)),
            ("destination_totals", destinations, (len(destinations),)),
            ("origin_totals_series", origins, (self.num_snapshots, len(origins))),
            ("destination_totals_series", destinations, (self.num_snapshots, len(destinations))),
        ):
            object.__setattr__(
                self, name, _edge_totals(getattr(self, name), labels, shape, name)
            )

    # ------------------------------------------------------------------
    @property
    def pairs(self) -> PairIndex:
        """The origin-destination pairs being estimated (the routing's index)."""
        return self.routing.pairs

    @property
    def num_pairs(self) -> int:
        """Number of unknown demands."""
        return self.routing.num_pairs

    @property
    def snapshot(self) -> np.ndarray:
        """The link-load snapshot (mean of the series when only a series is given)."""
        if self.link_loads is not None:
            return self.link_loads
        # __post_init__ guarantees at least one of the two is present.
        assert self.link_load_series is not None
        return self.link_load_series.mean(axis=0)

    @property
    def series(self) -> np.ndarray:
        """The link-load series, raising if the problem only has a snapshot."""
        if self.link_load_series is None:
            raise EstimationError("this problem does not contain a link-load time series")
        return self.link_load_series

    @property
    def num_snapshots(self) -> int:
        """Number of snapshots available (1 when only a single load vector exists)."""
        if self.link_load_series is None:
            return 1
        return self.link_load_series.shape[0]

    def _mean_path_length(self) -> float:
        path_lengths = self.routing.path_lengths()
        mean_length = float(path_lengths.mean()) if len(path_lengths) else 1.0
        if mean_length <= 0:
            raise EstimationError("routing matrix has empty paths; cannot infer total traffic")
        return mean_length

    def total_traffic(self) -> float:
        """Total network traffic for the snapshot.

        Uses the origin totals when available (their sum is exactly the
        total traffic entering the network); otherwise falls back to a
        routing-aware estimate ``sum(t) / mean path length``, which is exact
        when all demands traverse the same number of links and a reasonable
        approximation otherwise.
        """
        if self.origin_totals is not None:
            # Left-to-right like a loop over the totals (np.sum adds pairwise).
            return float(sum(self.origin_totals.tolist()))
        return float(self.snapshot.sum() / self._mean_path_length())

    def total_traffic_series(self) -> np.ndarray:
        """Per-snapshot total traffic ``(K,)`` for the series.

        The row sums of the origin totals series when given, else
        :meth:`total_traffic` for every snapshot when origin totals are
        given, else each snapshot's ``sum(t) / mean path length``.
        """
        series = self.series
        if self.origin_totals_series is not None:
            return self.origin_totals_series.sum(axis=1)
        if self.origin_totals is not None:
            return np.full(series.shape[0], self.total_traffic())
        return series.sum(axis=1) / self._mean_path_length()

    def totals_by_snapshot(self) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Per-snapshot ``(K, N)`` origin and destination totals.

        Row ``k`` holds the totals :meth:`at_snapshot` gives snapshot ``k``:
        the totals series row when a series is given, else the snapshot
        totals; ``None`` when neither is known.
        """
        num_snapshots = self.series.shape[0]

        def rows(
            series: Optional[np.ndarray], totals: Optional[np.ndarray]
        ) -> Optional[np.ndarray]:
            if series is not None or totals is None:
                return series
            return np.tile(totals, (num_snapshots, 1))

        return (
            rows(self.origin_totals_series, self.origin_totals),
            rows(self.destination_totals_series, self.destination_totals),
        )

    # ------------------------------------------------------------------
    # shared per-problem workspace
    # ------------------------------------------------------------------
    def shared(self, key: tuple, builder: Callable[[], Any]) -> Any:
        """Compute-once workspace shared by every estimator run on this problem.

        ``sweep()`` and ``method_comparison`` hand the *same* problem object
        to K methods, most of which redo identical setup — the gravity
        prior, per-snapshot prior series.  This cache lets that setup run
        once per problem instead of once per method: the first caller pays
        ``builder()``, later callers get the cached value.  Cached arrays
        are returned as-is, so treat them as read-only (the prior helpers
        mark theirs immutable).
        """
        cache = self._shared_cache
        if key in cache:
            telemetry.counter_inc("workspace.cache_hits")
            return cache[key]
        telemetry.counter_inc("workspace.cache_misses")
        cache[key] = builder()
        return cache[key]

    def pair_positions(self) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray, np.ndarray]:
        """``(origins, destinations, origin_cols, destination_cols)`` for the pairs.

        ``origin_cols[p]`` / ``destination_cols[p]`` are the indices of pair
        ``p``'s origin and destination within the first-appearance label
        orders — the index arrays every vectorised totals/gravity/Kruithof
        path needs, and the order of the edge-total vectors.  They are the
        routing's shared :meth:`~repro.topology.elements.PairIndex.codes`,
        so every problem on one routing returns the same read-only object.
        """
        return self.routing.pairs.codes()

    # ------------------------------------------------------------------
    # edge-total incidence structure
    # ------------------------------------------------------------------
    def _incidence_block(self, num_labels: int, codes: np.ndarray) -> scipy.sparse.csr_matrix:
        """0/1 CSR block mapping pairs to their origin (or destination) row."""
        columns = np.arange(self.num_pairs)
        return scipy.sparse.csr_matrix(
            (np.ones(self.num_pairs), (codes, columns)), shape=(num_labels, self.num_pairs)
        )

    def augmented_system(self) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
        """Routing constraints augmented with edge-total rows.

        The paper's network view includes the access/peering links over
        which traffic enters and exits, so the observable data also contains
        the per-node totals ``t_e(n)`` and ``t_x(m)``.  Each total adds one
        linear constraint: the sum of demands originating at (terminating
        at) the node equals the measured total.  The worst-case-bound
        estimator uses this augmented system.

        Returns ``(matrix, rhs)`` where ``matrix`` is the CSR stack of the
        routing matrix and the rows of whichever totals the problem carries
        and ``rhs`` stacks the link-load snapshot and those totals.  The
        result is cached in the shared workspace, so treat it as read-only.
        """
        return self.shared(("augmented_system",), self._stack_totals)

    def _stack_totals(self) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
        """:meth:`augmented_system` without the cache."""
        rows = [self.routing.native]
        rhs = [self.snapshot]
        origins, destinations, origin_codes, destination_codes = self.pair_positions()
        if self.origin_totals is not None:
            rows.append(self._incidence_block(len(origins), origin_codes))
            rhs.append(self.origin_totals)
        if self.destination_totals is not None:
            rows.append(self._incidence_block(len(destinations), destination_codes))
            rhs.append(self.destination_totals)
        return scipy.sparse.vstack(rows, format="csr"), np.concatenate(rhs)

    # ------------------------------------------------------------------
    # derived problems
    # ------------------------------------------------------------------
    def at_snapshot(self, index: int) -> "EstimationProblem":
        """Single-snapshot sub-problem for series index ``index``.

        The link loads are the series row ``index``; per-snapshot edge
        totals are the totals series rows when available (falling back
        to the problem-level totals otherwise).  This is what the generic
        :meth:`Estimator.estimate_series` loop feeds to ``estimate``, and
        what the vectorised overrides must match.
        """
        series = self.series
        num = series.shape[0]
        if not 0 <= index < num:
            raise EstimationError(f"snapshot index {index} out of range for {num} snapshots")
        origin_totals = self.origin_totals
        if self.origin_totals_series is not None:
            origin_totals = self.origin_totals_series[index]
        destination_totals = self.destination_totals
        if self.destination_totals_series is not None:
            destination_totals = self.destination_totals_series[index]
        return EstimationProblem(
            routing=self.routing,
            link_loads=series[index],
            origin_totals=origin_totals,
            destination_totals=destination_totals,
        )


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of running one estimation method.

    Attributes
    ----------
    estimate:
        The estimated traffic matrix.
    method:
        Human-readable method name (e.g. ``"bayesian"``).
    diagnostics:
        Free-form numeric diagnostics: residual norms, iteration counts,
        chosen regularisation parameters, per-pair bounds, ...
    """

    estimate: TrafficMatrix
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def vector(self) -> np.ndarray:
        """The estimated demand vector."""
        return self.estimate.vector

    def residual_norm(self, problem: EstimationProblem) -> float:
        """``||R s_hat - t||_2`` of the estimate against the problem snapshot."""
        return float(np.linalg.norm(problem.routing.link_loads(self.vector) - problem.snapshot))


@dataclass(frozen=True)
class SeriesEstimationResult:
    """Per-snapshot estimates for a whole link-load series.

    Attributes
    ----------
    estimates:
        Array of shape ``(K, num_pairs)``: one demand vector per snapshot.
    pairs:
        The pair ordering of the columns.
    method:
        Name of the estimation method that produced the batch.
    diagnostics:
        Free-form diagnostics of the batched run (e.g. how many snapshots
        took the fast path of a factor-once solver).
    """

    estimates: np.ndarray
    pairs: PairIndex
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.estimates.shape[0]

    @property
    def num_snapshots(self) -> int:
        """Number of snapshots estimated."""
        return self.estimates.shape[0]

    def matrix(self, index: int) -> TrafficMatrix:
        """The estimate of snapshot ``index`` as a :class:`TrafficMatrix`."""
        num = self.estimates.shape[0]
        if not 0 <= index < num:
            raise EstimationError(f"snapshot index {index} out of range for {num} snapshots")
        return TrafficMatrix(self.pairs, self.estimates[index])

    def mean_matrix(self) -> TrafficMatrix:
        """Mean of the per-snapshot estimates (comparable to a window truth)."""
        return TrafficMatrix(self.pairs, self.estimates.mean(axis=0))

    def result(self, index: int) -> EstimationResult:
        """Wrap snapshot ``index`` as a plain :class:`EstimationResult`."""
        return EstimationResult(estimate=self.matrix(index), method=self.method)


def _span_diagnostics(diagnostics: Mapping[str, Any]) -> dict[str, Any]:
    """Scalar diagnostics as plain python values, for span attributes."""
    folded: dict[str, Any] = {}
    for key, value in diagnostics.items():
        if isinstance(value, (bool, np.bool_)):
            folded[key] = bool(value)
        elif isinstance(value, (int, np.integer)):
            folded[key] = int(value)
        elif isinstance(value, (float, np.floating)):
            folded[key] = float(value)
        elif isinstance(value, str):
            folded[key] = value
    return folded


def _traced_estimate(impl: Callable[..., Any], kind: str) -> Callable[..., Any]:
    """Wrap an ``estimate``/``estimate_series`` override in a stage span.

    The wrapper adds one flag check when telemetry is disabled.  When
    enabled it opens ``span(kind, method=..., n_pairs=...)`` around the
    call and folds the result's scalar diagnostics into the span
    attributes, so every method's convergence data lands on the trace
    without per-method instrumentation.
    """

    @functools.wraps(impl)
    def traced(self: "Estimator", problem: "EstimationProblem", *args: Any, **kwargs: Any) -> Any:
        if not telemetry.is_enabled():
            return impl(self, problem, *args, **kwargs)
        with telemetry.span(
            kind, method=self.name, n_pairs=problem.num_pairs
        ) as active:
            result = impl(self, problem, *args, **kwargs)
            diagnostics = getattr(result, "diagnostics", None)
            if diagnostics:
                active.set_attributes(**_span_diagnostics(diagnostics))
            return result

    traced._repro_span_wrapped = True  # type: ignore[attr-defined]
    return traced


class Estimator(abc.ABC):
    """Abstract base class of all traffic-matrix estimation methods."""

    #: Short identifier used in result objects, summary tables and the
    #: estimator registry (:mod:`repro.estimation.registry`).
    name: str = "estimator"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Auto-span every concrete ``estimate``/``estimate_series`` override.

        Each subclass-defined entry point is wrapped by
        :func:`_traced_estimate` exactly once (re-wrapping on further
        subclassing is prevented by the ``_repro_span_wrapped`` marker, and
        inherited implementations are already wrapped on the class that
        defined them).
        """
        super().__init_subclass__(**kwargs)
        for attr in ("estimate", "estimate_series"):
            impl = cls.__dict__.get(attr)
            if (
                impl is not None
                and callable(impl)
                and not getattr(impl, "__isabstractmethod__", False)
                and not getattr(impl, "_repro_span_wrapped", False)
            ):
                setattr(cls, attr, _traced_estimate(impl, attr))

    @abc.abstractmethod
    def estimate(self, problem: EstimationProblem) -> EstimationResult:
        """Estimate the traffic matrix for ``problem``."""

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Estimate every snapshot of the problem's link-load series.

        The generic implementation estimates each snapshot independently via
        :meth:`EstimationProblem.at_snapshot`; subclasses override it where
        one factorisation or one vectorised expression serves all ``K``
        right-hand sides.  Overrides must agree with this loop on the same
        problem (they are the fast path, not a different method).  Every
        snapshot is a cold solve: no method is seeded with another
        snapshot's estimate.
        """
        num_snapshots = problem.series.shape[0]
        estimates = np.empty((num_snapshots, problem.num_pairs))
        for index in range(num_snapshots):
            estimates[index] = self.estimate(problem.at_snapshot(index)).vector
        return self._series_result(problem, estimates, batched=False)

    def __call__(self, problem: EstimationProblem) -> EstimationResult:
        return self.estimate(problem)

    def _result(
        self,
        problem: EstimationProblem,
        values: np.ndarray,
        **diagnostics: Any,
    ) -> EstimationResult:
        """Package a demand vector into an :class:`EstimationResult`."""
        values = np.asarray(values, dtype=float)
        if values.shape != (problem.num_pairs,):
            raise EstimationError(
                f"{self.name} produced {values.shape} values for {problem.num_pairs} pairs"
            )
        matrix = TrafficMatrix(problem.pairs, np.maximum(values, 0.0))
        return EstimationResult(estimate=matrix, method=self.name, diagnostics=dict(diagnostics))

    def _series_result(
        self,
        problem: EstimationProblem,
        estimates: np.ndarray,
        **diagnostics: Any,
    ) -> SeriesEstimationResult:
        """Package a ``(K, num_pairs)`` batch into a :class:`SeriesEstimationResult`."""
        estimates = np.asarray(estimates, dtype=float)
        if estimates.ndim != 2 or estimates.shape[1] != problem.num_pairs:
            raise EstimationError(
                f"{self.name} produced a {estimates.shape} batch for "
                f"{problem.num_pairs} pairs"
            )
        return SeriesEstimationResult(
            estimates=np.maximum(estimates, 0.0),
            pairs=problem.pairs,
            method=self.name,
            diagnostics=dict(diagnostics),
        )
