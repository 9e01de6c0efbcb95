"""Wall time corrected for the machine's drifting speed.

On a shared 2-vCPU VM the same pure-Python loop runs up to 1.7 times
slower from one stretch of tens of seconds to the next, and the steal
counter stays near 0: the host slows the vCPUs, it does not deschedule
them.  Raw times then spread from run to run far more than any change
worth detecting.  So the benchmark times a fixed calibration routine,
independent of gjg, at the boundaries between operations (at most every
INTERVAL_S) and divides the time between two calibrations by the mean
speed factor they measured: calibration time / CALIBRATION_NOMINAL_S.
A time is thus reported in seconds of a machine on which the calibration
takes CALIBRATION_NOMINAL_S.  Calibration time itself is excluded.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter

import numpy as np

INTERVAL_S = 0.5
# About the calibration's time on the 2-vCPU Xeon VM the baseline was
# recorded on, so that scaled times read close to that machine's seconds.
CALIBRATION_NOMINAL_S = 0.010

_MATRIX = (np.arange(1500 * 1500, dtype=np.uint32) * 2654435761 % 7).astype(np.uint8).reshape(1500, 1500)


def calibrate() -> float:
    """Time a fixed mix of the work gjg does: set and tuple operations in
    Python (the witness constructions) and byte-matrix scans in numpy
    (the oracle)."""
    start = perf_counter()
    acc = 0
    for j in range(1200):
        a = tuple(sorted(range(j % 40, j % 40 + 24), reverse=True))
        acc += len(set(a) & set(range(j % 29, j % 29 + 24)))
    for value in range(3):
        acc += int(np.count_nonzero(_MATRIX == value))
        acc += np.nonzero(_MATRIX[:300] == value)[0].size
    if acc < 0:  # never true; keeps the work from being skipped
        raise AssertionError
    return perf_counter() - start


class SpeedClock:
    """Segments of wall time, each with the speed factor measured at its ends."""

    def __init__(self) -> None:
        self.segments: list[tuple[float, float, float]] = []  # (start, end, factor)
        self._ends: list[float] = []
        self._last = min(calibrate() for _ in range(2))
        self._since = perf_counter()

    def checkpoint(self, force: bool = True, repeats: int = 2) -> None:
        """Close the current segment with a calibration, the fastest of
        ``repeats`` runs so that a single hiccup does not count as the
        machine's speed; when ``force`` is false, only if INTERVAL_S has
        passed since the last one."""
        now = perf_counter()
        if not force and now - self._since < INTERVAL_S:
            return
        measured = min(calibrate() for _ in range(repeats))
        factor = (self._last + measured) / 2 / CALIBRATION_NOMINAL_S
        self.segments.append((self._since, now, factor))
        self._ends.append(now)
        self._last = measured
        self._since = perf_counter()

    def scaled(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] at nominal speed; the interval must lie in
        closed segments, so checkpoint after the work it times."""
        total = 0.0
        for index in range(bisect_right(self._ends, t0), len(self.segments)):
            start, end, factor = self.segments[index]
            if start >= t1:
                break
            total += (min(end, t1) - max(start, t0)) / factor
        return total
