"""Host-speed sampling that makes timings comparable across noisy phases.

On a shared 2-vCPU host the same Python work runs up to 2x slower for
seconds to minutes at a time (neighbour load on the physical cores; it
shows in process CPU time too, so CPU time does not help). While timed work
runs, a SIGALRM handler times a small fixed calibration unit every
``INTERVAL_S`` seconds -- pure-Python dict and integer work, the small numpy
sorts the KS test does and the fancy-index gathers of the MMD test. A
region's seconds, minus the handler's own time inside it, are scaled by
``REFERENCE_S / mean calibration seconds`` over the region: the duration the
region would have taken on a host that runs the unit in exactly
``REFERENCE_S``. The unit belongs to the benchmark, never to the program,
so a program change cannot move it.

The handler runs in the main thread between bytecodes, so it never
interleaves with a numpy call. It adds about 5 % to wall time, all of which
is subtracted from the regions it interrupts.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

# Mean calibration-unit seconds on the reference host (2-vCPU Linux VM,
# Python 3.11, numpy 2.4 with OpenBLAS) in its usual, contended phase.
REFERENCE_S = 0.0050
INTERVAL_S = 0.1

_rng = np.random.default_rng(12345)
_samples = _rng.random((40, 15))
_kernel = np.exp(-_rng.random((240, 240)))
_perms = [_rng.permutation(240) for _ in range(5)]


def _unit() -> None:
    acc, table = 0, {}
    for i in range(10000):
        table[i & 255] = (i, acc)
        acc += i * i % 7
    for _ in range(100):
        np.sort(_samples, axis=0)
        np.searchsorted(_samples[:, 0], _samples[:, 1])
    for perm in _perms:
        _kernel[np.ix_(perm[:200], perm[:200])].sum()


def calibrate(units: int) -> float:
    """Median seconds of a few calibration units run now."""
    times = []
    for _ in range(units):
        start = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Timed(NamedTuple):
    """Seconds of one region: measured (sampler time removed) and scaled."""

    seconds: float
    scaled: float


class HostSpeed:
    """Samples the calibration unit periodically while a block runs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._busy = False

    def _sample(self, *_signal_args) -> None:
        if self._busy:  # a timer signal during a sample would inflate it
            return
        self._busy = True
        start = time.perf_counter()
        _unit()
        self.samples.append((start, time.perf_counter() - start))
        self._busy = False

    @contextmanager
    def sampling(self):
        """Install the SIGALRM sampler for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            self._sample()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; returns its result and a :class:`Timed`."""
        first = len(self.samples)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        inside = self.samples[first:]
        if not inside:  # a short region: use the samples on either side
            before = self.samples[-1:]
            self._sample()
            inside = before + self.samples[-1:]
            handler_s = 0.0
        else:
            handler_s = sum(seconds for _start, seconds in inside)
        seconds = elapsed - handler_s
        calibration = sum(s for _start, s in inside) / len(inside)
        return result, Timed(seconds, seconds * REFERENCE_S / calibration)

    def calibrations(self) -> list[float]:
        return [seconds for _start, seconds in self.samples]
