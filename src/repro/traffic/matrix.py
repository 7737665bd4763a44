"""Traffic matrix data structures.

A traffic matrix assigns a demand volume to every origin-destination pair of
a network.  The paper manipulates it in three equivalent forms (Section 3):

* the vector ``s`` of point-to-point demands (canonical pair order),
* the normalised *demand distribution* ``s / s_tot``, and
* the *fanout* form ``alpha_nm = s_nm / sum_m s_nm`` — the fraction of the
  traffic entering at ``n`` that exits at ``m``.

:class:`TrafficMatrix` provides the vector and fanout views (the
distribution is the vector over :attr:`~TrafficMatrix.total`) plus the
bookkeeping (origin / destination totals, top-demand selection, thresholds
for the "demands carrying X % of traffic" rule used by the MRE metric).
:class:`TrafficMatrixSeries` holds a time series of matrices sampled at a
fixed interval — the paper's 24 hours of 5-minute samples — and exposes the
per-demand statistics (mean, variance, fanout trajectories) the data
analysis sections rely on.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from repro.errors import TopologyError, TrafficError
from repro.topology.elements import NodePair, PairIndex
from repro.topology.network import Network

__all__ = ["TrafficMatrix", "TrafficMatrixSeries"]


class TrafficMatrix:
    """An immutable traffic matrix over an explicit pair ordering.

    Parameters
    ----------
    pairs:
        Origin-destination pairs, in the order the values refer to.  This is
        normally the canonical order of the owning network.  A
        :class:`~repro.topology.elements.PairIndex` is shared as is, which
        makes wrapping a demand vector O(1); any other sequence is indexed
        (and checked for duplicates) first.
    values:
        Demand volumes (e.g. Mbit/s), one per pair, all non-negative.  The
        matrix keeps its own read-only copy.
    """

    def __init__(
        self, pairs: Sequence[NodePair], values: Union[Sequence[float], np.ndarray]
    ) -> None:
        try:
            self.pairs = PairIndex.of(pairs)
        except TopologyError as exc:
            raise TrafficError(str(exc)) from exc
        vector = np.array(values, dtype=float)
        if vector.ndim != 1:
            raise TrafficError("traffic matrix values must form a one-dimensional vector")
        if len(vector) != len(self.pairs):
            raise TrafficError(
                f"got {len(vector)} values for {len(self.pairs)} pairs"
            )
        if np.any(vector < 0):
            raise TrafficError("traffic matrix values must be non-negative")
        vector.setflags(write=False)
        self._values = vector

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(
        cls,
        pairs: Sequence[NodePair],
        demands: Mapping[NodePair, float],
        strict: bool = False,
    ) -> "TrafficMatrix":
        """Build a matrix from a ``pair -> volume`` mapping.

        Pairs absent from the mapping get zero demand.  With ``strict`` the
        mapping must not contain pairs outside ``pairs``.
        """
        known = set(pairs)
        extra = set(demands) - known
        if strict and extra:
            raise TrafficError(f"demands reference unknown pairs: {sorted(map(str, extra))}")
        return cls(pairs, [float(demands.get(pair, 0.0)) for pair in pairs])

    @classmethod
    def from_network(cls, network: Network, demands: Mapping[NodePair, float]) -> "TrafficMatrix":
        """Build a matrix over the canonical pair order of ``network``."""
        return cls.from_mapping(network.node_pairs(), demands, strict=True)

    @classmethod
    def zeros(cls, pairs: Sequence[NodePair]) -> "TrafficMatrix":
        """An all-zero matrix over ``pairs``."""
        return cls(pairs, np.zeros(len(pairs)))

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------
    @property
    def vector(self) -> np.ndarray:
        """The demand vector ``s`` (read-only view)."""
        return self._values

    def demand(self, pair: NodePair) -> float:
        """Demand of a single pair."""
        try:
            return float(self._values[self.pairs.position(pair)])
        except KeyError as exc:
            raise TrafficError(f"pair {pair} not in traffic matrix") from exc

    def __getitem__(self, pair: NodePair) -> float:
        return self.demand(pair)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[NodePair, float]]:
        return iter(zip(self.pairs, self._values))

    def to_mapping(self) -> dict[NodePair, float]:
        """Return a ``pair -> volume`` dictionary."""
        return {pair: float(value) for pair, value in zip(self.pairs, self._values)}

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """Total network traffic ``s_tot`` (sum of all demands)."""
        return float(self._values.sum())

    def _totals(self, labels: tuple[str, ...], codes: np.ndarray) -> np.ndarray:
        # bincount adds the weights in pair order, exactly like a loop would.
        return np.bincount(codes, weights=self._values, minlength=len(labels))

    def origin_totals(self) -> dict[str, float]:
        """Total traffic entering the network at each origin (``t_e(n)``)."""
        origins, _, origin_codes, _ = self.pairs.codes()
        return dict(zip(origins, self._totals(origins, origin_codes).tolist()))

    def destination_totals(self) -> dict[str, float]:
        """Total traffic exiting the network at each destination (``t_x(m)``)."""
        _, destinations, _, destination_codes = self.pairs.codes()
        return dict(zip(destinations, self._totals(destinations, destination_codes).tolist()))

    def to_dense(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Return ``(node_names, matrix)`` with a dense N x N array.

        The diagonal is zero; node order is origins-first-seen, extended by
        destinations not already present.
        """
        origins, destinations, origin_codes, destination_codes = self.pairs.codes()
        known = set(origins)
        names = origins + tuple(name for name in destinations if name not in known)
        index = {name: i for i, name in enumerate(names)}
        rows = np.array([index[name] for name in origins], dtype=np.intp)
        cols = np.array([index[name] for name in destinations], dtype=np.intp)
        dense = np.zeros((len(names), len(names)))
        dense[rows[origin_codes], cols[destination_codes]] = self._values
        return names, dense

    # ------------------------------------------------------------------
    # normalised views (paper Section 3.2)
    # ------------------------------------------------------------------
    def fanouts(self) -> dict[NodePair, float]:
        """Fanout factors ``alpha_nm = s_nm / t_e(n)``.

        Origins with zero total traffic get uniform fanouts over their
        destinations, which keeps every per-origin fanout vector a proper
        probability distribution.
        """
        return dict(zip(self.pairs, self.fanout_vector().tolist()))

    def fanout_vector(self) -> np.ndarray:
        """Fanouts in canonical pair order, as a vector (see :meth:`fanouts`)."""
        origins, _, origin_codes, _ = self.pairs.codes()
        pair_totals = self._totals(origins, origin_codes)[origin_codes]
        destinations_per_origin = np.bincount(origin_codes, minlength=len(origins))
        fanouts = 1.0 / destinations_per_origin[origin_codes]
        np.divide(self._values, pair_totals, out=fanouts, where=pair_totals > 0)
        return fanouts

    # ------------------------------------------------------------------
    # demand ranking helpers (used by the MRE threshold rule)
    # ------------------------------------------------------------------
    def top_demands(self, count: int) -> tuple[NodePair, ...]:
        """The ``count`` largest demands, by volume, ties broken by pair order."""
        if count < 0:
            raise TrafficError("count must be non-negative")
        order = sorted(
            range(len(self.pairs)), key=lambda i: (-self._values[i], i)
        )
        return tuple(self.pairs[i] for i in order[:count])

    def threshold_for_traffic_fraction(self, fraction: float) -> float:
        """Smallest demand value whose inclusion covers ``fraction`` of traffic.

        The paper's MRE sums over demands larger than a threshold chosen so
        that the retained demands carry approximately 90 % of total traffic;
        this helper computes that threshold.
        """
        if not 0 < fraction <= 1:
            raise TrafficError("fraction must lie in (0, 1]")
        if self.total <= 0:
            return 0.0
        sorted_values = np.sort(self._values)[::-1]
        cumulative = np.cumsum(sorted_values)
        target = fraction * self.total
        idx = int(np.searchsorted(cumulative, target - 1e-12))
        idx = min(idx, len(sorted_values) - 1)
        return float(sorted_values[idx])

    def cumulative_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Data behind the paper's Figure 2.

        Returns ``(rank_fraction, traffic_fraction)``: after sorting demands
        in decreasing order, ``traffic_fraction[i]`` is the share of total
        traffic carried by the ``rank_fraction[i]`` largest fraction of
        demands.
        """
        if self.total <= 0:
            raise TrafficError("cumulative distribution undefined for zero traffic")
        sorted_values = np.sort(self._values)[::-1]
        cumulative = np.cumsum(sorted_values) / self.total
        ranks = np.arange(1, len(sorted_values) + 1) / len(sorted_values)
        return ranks, cumulative

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "TrafficMatrix":
        """Return a copy with every demand multiplied by ``factor`` (>= 0)."""
        if factor < 0:
            raise TrafficError("scaling factor must be non-negative")
        return TrafficMatrix(self.pairs, self._values * factor)

    def __add__(self, other: "TrafficMatrix") -> "TrafficMatrix":
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        if self.pairs is not other.pairs and self.pairs != other.pairs:
            raise TrafficError("cannot add traffic matrices over different pair orderings")
        return TrafficMatrix(self.pairs, self._values + other._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrafficMatrix(pairs={len(self.pairs)}, total={self.total:.3f})"


class TrafficMatrixSeries:
    """A time series of traffic matrices sampled at a fixed interval.

    Parameters
    ----------
    snapshots:
        Traffic matrices in chronological order; all must share the same
        pair ordering.
    interval_seconds:
        Sampling interval; the paper's data is five-minute (300 s) samples.
    start_time_seconds:
        Timestamp of the first snapshot, seconds since midnight.
    """

    def __init__(
        self,
        snapshots: Sequence[TrafficMatrix],
        interval_seconds: float = 300.0,
        start_time_seconds: float = 0.0,
    ) -> None:
        if not snapshots:
            raise TrafficError("a traffic matrix series needs at least one snapshot")
        if interval_seconds <= 0:
            raise TrafficError("interval_seconds must be positive")
        first = snapshots[0]
        for snap in snapshots[1:]:
            if snap.pairs is not first.pairs and snap.pairs != first.pairs:
                raise TrafficError("all snapshots must share the same pair ordering")
        self.snapshots = tuple(snapshots)
        self.interval_seconds = float(interval_seconds)
        self.start_time_seconds = float(start_time_seconds)
        self.pairs = first.pairs

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, index: int) -> TrafficMatrix:
        return self.snapshots[index]

    def __iter__(self) -> Iterator[TrafficMatrix]:
        return iter(self.snapshots)

    def timestamps(self) -> np.ndarray:
        """Timestamps (seconds since midnight) of each snapshot."""
        return self.start_time_seconds + self.interval_seconds * np.arange(len(self.snapshots))

    def as_array(self) -> np.ndarray:
        """Stack the demand vectors into an array of shape ``(K, P)``."""
        return np.stack([snap.vector for snap in self.snapshots])

    # ------------------------------------------------------------------
    # statistics used by the paper's data analysis
    # ------------------------------------------------------------------
    def mean_matrix(self) -> TrafficMatrix:
        """Per-pair mean over the series (the MRE reference for time-series methods)."""
        return TrafficMatrix(self.pairs, self.as_array().mean(axis=0))

    def demand_means(self) -> np.ndarray:
        """Per-pair sample means."""
        return self.as_array().mean(axis=0)

    def demand_variances(self, ddof: int = 0) -> np.ndarray:
        """Per-pair sample variances."""
        return self.as_array().var(axis=0, ddof=ddof)

    def total_traffic_series(self) -> np.ndarray:
        """Total network traffic per snapshot (the paper's Figure 1)."""
        return self.as_array().sum(axis=1)

    def fanout_series(self) -> np.ndarray:
        """Fanouts per snapshot, shape ``(K, P)`` (the paper's Figure 5)."""
        return np.stack([snap.fanout_vector() for snap in self.snapshots])

    def window(self, start: int, length: int) -> "TrafficMatrixSeries":
        """Return the sub-series ``[start, start + length)``."""
        if length <= 0:
            raise TrafficError("window length must be positive")
        if start < 0 or start + length > len(self.snapshots):
            raise TrafficError(
                f"window [{start}, {start + length}) outside series of length {len(self)}"
            )
        return TrafficMatrixSeries(
            self.snapshots[start : start + length],
            interval_seconds=self.interval_seconds,
            start_time_seconds=self.start_time_seconds + start * self.interval_seconds,
        )

    def busy_window_start(self, length: int) -> int:
        """Start index of the ``length``-snapshot window with the most traffic.

        Exposed separately from :meth:`busy_window` so that parallel series
        (e.g. measured link loads) can be sliced to the same interval.
        """
        if length <= 0:
            raise TrafficError("window length must be positive")
        if length > len(self.snapshots):
            raise TrafficError("window longer than the series")
        totals = self.total_traffic_series()
        sums = np.convolve(totals, np.ones(length), mode="valid")
        return int(np.argmax(sums))

    def busy_window(self, length: int) -> "TrafficMatrixSeries":
        """The ``length`` consecutive snapshots with the highest total traffic.

        This mirrors the paper's focus on the busy period (the shaded
        interval of its Figure 1) for the estimation benchmarks.
        """
        return self.window(self.busy_window_start(length), length)
