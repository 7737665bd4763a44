"""SNMP polling simulation.

Section 5.1.2 of the paper describes the collection infrastructure: SNMP
counters for every link and LSP are polled every five minutes at fixed
timestamps; because SNMP runs over unreliable UDP some samples are lost, the
exact response time of each router varies slightly, and the reported byte
counts are converted to rates using the *actual* measurement interval (e.g.
"5 minutes and 3 seconds") so that the time series stays uniform.

This module models that pipeline for a single poller, as arrays:

* :class:`SNMPPoller` — polls a set of ``uint64`` byte counters on a fixed
  schedule with per-poll jitter and optional UDP loss.  A whole
  ``(intervals, objects)`` schedule is one cumulative sum plus one
  jitter/loss draw per round;
* :class:`PollMatrix` — the dense ``(rounds, objects)`` outcome of a
  schedule: response times, counter values and the loss mask;
* :func:`classify_counter_deltas` — the one counter-delta classifier
  (wrap-aware deltas; valid, degenerate, reset and wrapped samples) shared
  by the batch conversion below and the streaming
  :class:`~repro.streaming.CounterTracker`, reading the counter widths a
  :class:`CounterWidths` derives once per matrix or stream;
* :func:`rates_from_poll_matrix` — turns consecutive poll rounds into the
  rate samples the estimation pipeline consumes, interpolating over lost
  polls and reporting :class:`RateDiagnostics` (how many samples were lost
  to UDP, degenerate because no time elapsed between responses, or filled
  by interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import MeasurementError

__all__ = [
    "CounterWidths",
    "PollMatrix",
    "RateDiagnostics",
    "SNMPPoller",
    "classify_counter_deltas",
    "rates_from_poll_matrix",
]

#: Bytes accumulated per second at 1 Mbit/s.
_BYTES_PER_MBPS_SECOND = 1e6 / 8.0
#: Mbit/s per byte per second.
_RATE_PER_BYTE_SECOND = 8.0 / 1e6


class CounterWidths:
    """Counter widths in the form :func:`classify_counter_deltas` reads them.

    ``counter_bits`` is one width for every sample or an array of one width
    per object (broadcast against the last axis).  The masks and counter
    spaces the classifier needs are derived here once, so a poll matrix or
    stream, whose widths never change, pays for them once and not on every
    classified round.

    Attributes
    ----------
    bits:
        The widths as ``uint64``.
    narrow:
        ``bits < 64``: the counters that wrap inside the ``uint64`` space.
    space:
        ``2**bits`` where narrow (``2**63`` elsewhere, never used), or
        ``None`` when no counter is narrow.
    half_space:
        ``2**(bits - 1)``, the largest delta a wrap may explain.
    """

    __slots__ = ("bits", "narrow", "space", "half_space")

    def __init__(self, counter_bits: Union[int, np.ndarray]) -> None:
        bits = np.asarray(counter_bits, dtype=np.uint64)
        narrow = bits < np.uint64(64)
        self.bits = bits
        self.narrow = narrow
        # 1 << 64 is undefined; wide counters keep their delta anyway.
        self.space = (
            np.uint64(1) << np.where(narrow, bits, np.uint64(63)) if narrow.any() else None
        )
        self.half_space = np.uint64(1) << (bits - np.uint64(1))


@dataclass(frozen=True)
class PollMatrix:
    """Dense outcome of a polling schedule: ``(rounds, objects)`` arrays.

    Attributes
    ----------
    object_names:
        Column labels.
    scheduled_times:
        Nominal poll timestamps, shape ``(rounds,)``.
    response_times:
        Actual (jittered) response times, shape ``(rounds, objects)``.
    counters:
        Counter values read, shape ``(rounds, objects)``, ``uint64``; entries
        where ``lost`` is true are never read.
    lost:
        Boolean UDP-loss mask, shape ``(rounds, objects)``.
    counter_bits:
        Width of the underlying MIB counters (64 for Counter64, 32 for the
        legacy ifInOctets Counter32).  Rate derivation wraps deltas modulo
        ``2**counter_bits``, so every counter must lie below it.
    widths:
        :class:`CounterWidths` of ``counter_bits``, derived on construction.

    The constructor rejects arrays the rate derivation would misread: signed
    counters turn a reboot into a wrap, an integer loss mask turns ``~lost``
    into a bitwise NOT, and a reading beyond the counter space is no reading
    of that counter.
    """

    object_names: tuple[str, ...]
    scheduled_times: np.ndarray
    response_times: np.ndarray
    counters: np.ndarray
    lost: np.ndarray
    counter_bits: int = 64
    widths: CounterWidths = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rounds = len(self.scheduled_times)
        shape = (rounds, len(self.object_names))
        for attribute in ("response_times", "counters", "lost"):
            if getattr(self, attribute).shape != shape:
                raise MeasurementError(
                    f"poll matrix field {attribute} has shape "
                    f"{getattr(self, attribute).shape}, expected {shape}"
                )
        if not 1 <= self.counter_bits <= 64:
            raise MeasurementError(
                f"counter_bits must lie in [1, 64], got {self.counter_bits}"
            )
        if self.counters.dtype != np.uint64:
            raise MeasurementError(
                f"poll matrix counters must be uint64, got {self.counters.dtype}"
            )
        if self.lost.dtype != np.bool_:
            raise MeasurementError(
                f"poll matrix loss mask must be bool, got {self.lost.dtype}"
            )
        if (
            self.counter_bits < 64
            and self.counters.size
            and int(self.counters.max()) >= 2**self.counter_bits
        ):
            raise MeasurementError(
                f"a counter reading exceeds the {self.counter_bits}-bit counter space"
            )
        object.__setattr__(self, "widths", CounterWidths(self.counter_bits))

    @property
    def num_rounds(self) -> int:
        """Number of poll rounds (intervals + 1)."""
        return len(self.scheduled_times)

    @property
    def num_objects(self) -> int:
        """Number of polled objects."""
        return len(self.object_names)


@dataclass(frozen=True)
class RateDiagnostics:
    """Sample accounting of one poll-rounds → rates conversion.

    Attributes
    ----------
    num_intervals:
        Number of measurement intervals (poll rounds minus one).
    num_objects:
        Number of measured objects.
    lost_samples:
        ``(interval, object)`` samples unusable because at least one of the
        two bounding polls was lost to UDP.
    degenerate_samples:
        Samples where both polls answered but no time elapsed between the
        responses (``elapsed <= 0``), so no rate can be derived.
    interpolated_samples:
        Samples filled by interpolation from neighbouring valid samples
        (every lost, degenerate or reset-invalidated sample is filled, so
        this equals their sum).
    reset_samples:
        Samples discarded because the counter went backwards by more than
        half the counter space — a device reset/reboot rather than a wrap.
    wrap_samples:
        Samples where the counter went backwards by *less* than half the
        counter space: a legitimate modulo-``2**counter_bits`` wrap whose
        delta was recovered (these samples stay valid).
    validity:
        Optional boolean ``(num_intervals, num_objects)`` mask: ``True``
        where the rate was derived from two good polls, ``False`` where it
        was filled by interpolation (lost / degenerate / reset samples).
        Callers that must not consume fabricated data — the streaming
        estimator, quality gates — read this instead of re-deriving the
        loss pattern from the poll matrix.  Excluded from equality
        comparisons so diagnostics records stay cheaply comparable.
    """

    num_intervals: int
    num_objects: int
    lost_samples: int
    degenerate_samples: int
    interpolated_samples: int
    reset_samples: int = 0
    wrap_samples: int = 0
    validity: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @property
    def total_samples(self) -> int:
        """Total number of ``(interval, object)`` samples."""
        return self.num_intervals * self.num_objects

    @property
    def interpolated_fraction(self) -> float:
        """Fraction of samples that had to be interpolated."""
        if self.total_samples == 0:
            return 0.0
        return self.interpolated_samples / self.total_samples

    def merged(self, other: "RateDiagnostics") -> "RateDiagnostics":
        """Combine the accounting of two conversions (e.g. of two pollers)."""
        if self.num_intervals != other.num_intervals:
            raise MeasurementError("cannot merge diagnostics over different interval counts")
        validity = None
        if self.validity is not None and other.validity is not None:
            validity = np.hstack([self.validity, other.validity])
        return RateDiagnostics(
            num_intervals=self.num_intervals,
            num_objects=self.num_objects + other.num_objects,
            lost_samples=self.lost_samples + other.lost_samples,
            degenerate_samples=self.degenerate_samples + other.degenerate_samples,
            interpolated_samples=self.interpolated_samples + other.interpolated_samples,
            reset_samples=self.reset_samples + other.reset_samples,
            wrap_samples=self.wrap_samples + other.wrap_samples,
            validity=validity,
        )


class SNMPPoller:
    """Simulates one SNMP poller and its polling schedule.

    Counters are held as a single ``uint64`` array (one entry per object) so
    that advancing and polling the whole object set are array operations.

    Parameters
    ----------
    object_names:
        Names of the measured objects (links or LSPs).
    interval_seconds:
        Nominal polling interval (the paper uses 300 s).
    jitter_std_seconds:
        Standard deviation of the response-time jitter around the scheduled
        timestamp.
    loss_probability:
        Probability that an individual poll is lost (SNMP over UDP).
    seed:
        Seed of the internal random generator.
    counter_bits:
        Width of the simulated MIB counters: 64 (Counter64, the default) or
        32 (legacy Counter32 / ifInOctets), which wraps every 2**32 bytes.
    fault_plan:
        Optional seeded fault plan (duck-typed; see
        :class:`repro.resilience.FaultPlan`).  Applied to every poll matrix
        this poller produces, after the clean schedule ran.
    fault_salt:
        Salt mixed into the fault plan's generator so several pollers under
        one plan draw distinct, reproducible fault streams.
    """

    def __init__(
        self,
        object_names: Sequence[str],
        interval_seconds: float = 300.0,
        jitter_std_seconds: float = 2.0,
        loss_probability: float = 0.0,
        seed: Optional[int] = None,
        counter_bits: int = 64,
        fault_plan: Optional[object] = None,
        fault_salt: int = 0,
    ) -> None:
        if not object_names:
            raise MeasurementError("poller needs at least one object to poll")
        if len(set(object_names)) != len(object_names):
            raise MeasurementError("duplicate object names")
        if interval_seconds <= 0:
            raise MeasurementError("interval_seconds must be positive")
        if jitter_std_seconds < 0:
            raise MeasurementError("jitter_std_seconds must be non-negative")
        if not 0 <= loss_probability < 1:
            raise MeasurementError("loss_probability must lie in [0, 1)")
        if counter_bits not in (32, 64):
            raise MeasurementError("counter_bits must be 32 or 64")
        self.object_names = tuple(object_names)
        self.interval_seconds = float(interval_seconds)
        self.jitter_std_seconds = float(jitter_std_seconds)
        self.loss_probability = float(loss_probability)
        self.counter_bits = int(counter_bits)
        self.fault_plan = fault_plan
        self.fault_salt = int(fault_salt)
        self._rng = np.random.default_rng(seed)
        self._values = np.zeros(len(self.object_names), dtype=np.uint64)

    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        """Number of objects this poller tracks."""
        return len(self.object_names)

    def _poll_arrays(self, scheduled_time: float) -> tuple[np.ndarray, np.ndarray]:
        """One poll round: jittered response times and the loss mask."""
        jitter = np.abs(self._rng.normal(scale=self.jitter_std_seconds, size=self.num_objects))
        lost = self._rng.random(self.num_objects) < self.loss_probability
        return scheduled_time + jitter, lost

    def run_schedule_matrix(
        self,
        rate_matrix_mbps: np.ndarray,
        start_time: float = 0.0,
    ) -> PollMatrix:
        """Drive the counters with a rate matrix and poll after every interval.

        ``rate_matrix_mbps`` has shape ``(K, num_objects)``: the sustained
        per-object rates during each of the ``K`` intervals, columns aligned
        with :attr:`object_names`.  Counter trajectories are one cumulative
        sum and each round's jitter/loss one vectorised draw, so the whole
        schedule is O(K) NumPy calls instead of O(K * objects) Python steps.
        Counters carry over between calls, like a real device's.

        Returns a :class:`PollMatrix` with ``K + 1`` rounds, *including* an
        initial poll at ``start_time`` so that rates can be derived from
        consecutive counter differences.
        """
        rates = np.asarray(rate_matrix_mbps, dtype=float)
        if rates.ndim != 2 or rates.shape[1] != self.num_objects:
            raise MeasurementError(
                f"rate matrix has shape {rates.shape}, "
                f"expected (K, {self.num_objects})"
            )
        if np.any(rates < 0):
            raise MeasurementError("counters cannot be advanced with negative rates")
        num_intervals = rates.shape[0]

        added = np.rint(rates * (_BYTES_PER_MBPS_SECOND * self.interval_seconds))
        counters = np.empty((num_intervals + 1, self.num_objects), dtype=np.uint64)
        counters[0] = self._values
        counters[1:] = self._values + np.cumsum(added.astype(np.uint64), axis=0)
        if self.counter_bits < 64:
            counters %= np.uint64(2**self.counter_bits)
        self._values = counters[-1].copy()

        scheduled = start_time + self.interval_seconds * np.arange(num_intervals + 1)
        response = np.empty((num_intervals + 1, self.num_objects))
        lost = np.empty((num_intervals + 1, self.num_objects), dtype=bool)
        if self.jitter_std_seconds == 0 and self.loss_probability == 0:
            # Every draw would be |0 * z| jitter and a loss test against 0,
            # and the generator feeds nothing else, so skip the draws.
            response[:] = scheduled[:, None]
            lost[:] = False
        else:
            for row in range(num_intervals + 1):
                response[row], lost[row] = self._poll_arrays(float(scheduled[row]))
        polls = PollMatrix(
            object_names=self.object_names,
            scheduled_times=scheduled,
            response_times=response,
            counters=counters,
            lost=lost,
            counter_bits=self.counter_bits,
        )
        if self.fault_plan is not None:
            polls = self.fault_plan.apply_to_polls(polls, salt=self.fault_salt)
        return polls


def classify_counter_deltas(
    previous: np.ndarray,
    current: np.ndarray,
    elapsed: np.ndarray,
    usable: np.ndarray,
    widths: CounterWidths,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Classify counter deltas between two polls and derive their rates.

    ``previous`` and ``current`` are ``uint64`` counter readings, ``elapsed``
    the seconds between their responses and ``usable`` the samples whose two
    polls both answered.  ``widths`` holds one counter width for every
    sample or one per object, broadcast against the last axis (a
    :attr:`PollMatrix.widths` or :attr:`~repro.streaming.PollStream.widths`).

    A usable sample is *degenerate* when no time elapsed (``elapsed <= 0``).
    A counter that went backwards either wrapped modulo
    ``2**counter_bits`` — the modular delta stays below half the counter
    space, the sample stays valid and counts as *wrapped* — or was *reset*
    by a device reboot: the modular delta exceeds half the space, which no
    plausible rate produces in one interval, so the sample is unusable.

    Returns ``(rates, valid, degenerate, reset, wrapped)``: Mbit/s rates
    (NaN where not valid) and four boolean masks.
    """
    # uint64 subtraction wraps modulo 2**64 exactly like the Counter64 MIB;
    # narrower counters (Counter32) reduce the same difference modulo their
    # own space, which recovers the true delta across a legitimate wrap.
    deltas = current - previous
    if widths.space is not None:
        deltas = np.where(widths.narrow, deltas % widths.space, deltas)

    backwards = current < previous
    degenerate = usable & (elapsed <= 0)
    reset = usable & ~degenerate & backwards & (deltas > widths.half_space)
    wrapped = usable & ~degenerate & backwards & ~reset
    valid = usable & ~degenerate & ~reset

    rates = deltas.astype(float)
    rates *= _RATE_PER_BYTE_SECOND
    np.divide(rates, elapsed, out=rates, where=valid)
    np.copyto(rates, np.nan, where=~valid)
    return rates, valid, degenerate, reset, wrapped


def rates_from_poll_matrix(
    polls: PollMatrix,
    max_interpolated_fraction: float = 1.0,
) -> tuple[np.ndarray, RateDiagnostics]:
    """Convert a :class:`PollMatrix` into interval rates plus diagnostics.

    The rate of object ``o`` during interval ``k`` is the counter difference
    between round ``k+1`` and round ``k`` divided by the *actual* elapsed
    time between the two responses — the interval-length adjustment the
    paper describes.  Samples where either poll was lost (UDP), where no
    time elapsed between the responses (degenerate jitter) or where the
    counter was reset (see :func:`classify_counter_deltas`) are linearly
    interpolated from the nearest valid samples of the same object (constant
    extrapolation at the boundaries), and each kind is counted in the
    returned :class:`RateDiagnostics`.

    Parameters
    ----------
    polls:
        The ``(K + 1, objects)`` poll outcome.
    max_interpolated_fraction:
        Raise :class:`~repro.errors.MeasurementError` when the fraction of
        interpolated samples exceeds this threshold (the default ``1.0``
        never raises); heavily interpolated data are not measurements any
        more.

    Returns ``(rates, diagnostics)`` with ``rates`` of shape
    ``(K, num_objects)``; ``diagnostics.validity`` carries the per-sample
    boolean mask (``False`` where the returned rate was interpolated), so
    callers can skip fabricated samples without re-deriving the loss
    pattern.
    """
    if polls.num_rounds < 2:
        raise MeasurementError("need at least two poll rounds to derive rates")
    if not 0 <= max_interpolated_fraction <= 1:
        raise MeasurementError("max_interpolated_fraction must lie in [0, 1]")
    num_intervals = polls.num_rounds - 1

    pair_lost = polls.lost[1:] | polls.lost[:-1]
    rates, valid, degenerate, reset, wrapped = classify_counter_deltas(
        polls.counters[:-1],
        polls.counters[1:],
        polls.response_times[1:] - polls.response_times[:-1],
        ~pair_lost,
        polls.widths,
    )

    valid_per_object = valid.any(axis=0)
    if not valid_per_object.all():
        name = polls.object_names[int(np.argmin(valid_per_object))]
        raise MeasurementError(f"all polls lost for object {name!r}")

    valid.setflags(write=False)
    diagnostics = RateDiagnostics(
        num_intervals=num_intervals,
        num_objects=polls.num_objects,
        lost_samples=int(pair_lost.sum()),
        degenerate_samples=int(degenerate.sum()),
        interpolated_samples=int((~valid).sum()),
        reset_samples=int(reset.sum()),
        wrap_samples=int(wrapped.sum()),
        validity=valid,
    )
    if diagnostics.interpolated_fraction > max_interpolated_fraction:
        raise MeasurementError(
            f"{diagnostics.interpolated_samples} of {diagnostics.total_samples} samples "
            f"({diagnostics.interpolated_fraction:.1%}) would be interpolated, "
            f"exceeding the allowed fraction {max_interpolated_fraction:.1%}"
        )

    indices = np.arange(num_intervals)
    for col in np.nonzero(~valid.all(axis=0))[0]:
        column = rates[:, col]
        known = ~np.isnan(column)
        column[~known] = np.interp(indices[~known], indices[known], column[known])
    return rates, diagnostics
