"""A fixed reference computation that tracks how fast the machine runs now.

On a shared host the other tenants slow every process by 10 to 40 % for
stretches of a fraction of a second to minutes, so the same operation's
wall time drifts between runs far more than a program change of a few per
cent.  While the untraced operations run, a timer interrupts them every
``INTERVAL`` seconds to time one short slice of this reference
computation.  Each operation's time, less the slices inside it, is
reported as a multiple of the mean slice time around it (unit ``cal``).
The reference mixes what the program spends its time on: batched numpy
algebra on arrays of the size of 27 lines' Newton systems, and
permutation composition.  It belongs to the benchmark, so a change to the
program moves the numerator only.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

INTERVAL = 0.05  # seconds between reference slices
MARGIN = 0.25  # slices this close to an operation also scale it
TRIM = 0.1  # share of operations cut from each end of the calibrated times
# Calibrated set-up is reported in seconds at this slice time, about the
# slice's mean on the unloaded 2-core host the benchmark was tuned on.
SLICE_S = 0.0005

_RNG = np.random.default_rng(0)
_VALUES = _RNG.standard_normal((27, 4, 20)) + 1j * _RNG.standard_normal((27, 4, 20))
_COEFFS = _RNG.standard_normal(20) + 0j
_BLOCKS = np.eye(4) + 0.1 * (_RNG.standard_normal((27, 4, 4))
                             + 1j * _RNG.standard_normal((27, 4, 4)))
_PICK = np.arange(27) % 4
_PERM = tuple((5 * i + 3) % 27 for i in range(27))


def reference() -> complex:
    """One slice: batched small complex algebra, as in a homotopy step, then permutations."""
    x = _COEFFS
    for _ in range(8):
        vals = _VALUES @ x
        grad = np.einsum("nmr,nr->nm", _BLOCKS, vals)
        step = np.linalg.solve(_BLOCKS, vals[..., None])[..., 0]
        x = x + 1e-9 * (step.sum() + grad[np.arange(27), _PICK].sum())
    p = _PERM
    for _ in range(20):
        p = tuple(p[i] for i in _PERM)
    return x[0] + p[0]


class Sampler:
    """Times a reference slice every ``INTERVAL`` seconds, from ``SIGALRM``.

    Use as a context manager in the main thread; the timer and the previous
    handler are restored on exit.  ``starts`` and ``slices`` hold each
    slice's start and duration, in ``perf_counter`` seconds.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.slices: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference()
        self.starts.append(t0)
        self.slices.append(perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return self.slices[lo:hi]

    def inside(self, start: float, end: float) -> float:
        """Seconds of reference slices that ran within ``[start, end]``."""
        return sum(self._between(start, end))

    def scale(self, start: float, end: float) -> float:
        """Mean slice time within ``MARGIN`` of ``[start, end]``, or ``nan``."""
        around = self._between(start - MARGIN, end + MARGIN)
        return sum(around) / len(around) if around else float("nan")

    def calibrate(self, intervals: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """Each interval's seconds less the slices inside it, and those over its scale."""
        times = [end - start - self.inside(start, end) for start, end in intervals]
        return times, [t / self.scale(*iv) for t, iv in zip(times, intervals)]


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without the lowest and highest ``TRIM`` share of them."""
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    kept = ordered[k:len(ordered) - k]
    return sum(kept) / len(kept)
