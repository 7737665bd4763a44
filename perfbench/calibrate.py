"""Host-speed calibration: timings expressed in reference seconds.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of per cent within minutes, as neighbours come and go.  No amount of
repetition inside one run averages out drift that outlasts the run.  So the
untraced run times a fixed kernel before its first measured step and between
every two, and divides its timings by the run's mean kernel time, weighted
by how long each stretch between two samples lasted.
Multiplied by :data:`REFERENCE_SECONDS`, the kernel's time on a quiet host,
they read in seconds of that host: a slower program reads slower, a slower
host does not.  The mean is over the whole run because a single kernel
sample is noisier than the drift it corrects.

The kernel mixes what the workloads do: interpreter loops, one-thread dense
BLAS, sparse products the shape of a routing matrix, and a memory-bound sort.
Its inputs are fixed, never drawn from the workload seed, and it calls
nothing from ``repro``, so no change to the program can change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse

#: The kernel time reference seconds are expressed against: about its median
#: on the 2-vCPU VM the benchmark was tuned on.
REFERENCE_SECONDS = 0.045
#: Kernel runs per calibration; their median is the calibration.
KERNEL_REPEATS = 3

_RNG = np.random.default_rng(0)
_DENSE = _RNG.random((200, 200))
_SPARSE = scipy.sparse.csr_matrix(
    (_RNG.random(240_000), (_RNG.integers(0, 40_000, 240_000), _RNG.integers(0, 600, 240_000))),
    shape=(40_000, 600),
)
_LINKS = _RNG.random(600)
_PAIRS = _RNG.random(40_000)
_SORTED = _RNG.random(200_000)


def _kernel() -> None:
    total = 0
    for value in range(40_000):
        total += value * value
    for _ in range(4):
        _DENSE @ _DENSE
    for _ in range(20):
        _SPARSE @ _LINKS
        _SPARSE.T @ _PAIRS
    for _ in range(2):
        np.sort(_SORTED)


def kernel_seconds() -> float:
    """Median time of :data:`KERNEL_REPEATS` kernel runs."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Kernel times sampled between the measured steps of a run."""

    def __init__(self) -> None:
        self.samples = [kernel_seconds()]
        self._since = time.perf_counter()
        self._span = 0.0
        self._weighted = 0.0

    def sample(self) -> None:
        """Time the kernel once more; call between measured steps.

        The time since the last sample is weighted by the mean kernel time
        at its two ends, so a long step counts for more than a short one.
        """
        elapsed = time.perf_counter() - self._since
        kernel = kernel_seconds()
        self._span += elapsed
        self._weighted += elapsed * (self.samples[-1] + kernel) / 2.0
        self.samples.append(kernel)
        self._since = time.perf_counter()

    def scale(self) -> float:
        """Measured seconds -> reference seconds, from the run's time-weighted kernel time."""
        return REFERENCE_SECONDS * self._span / self._weighted
