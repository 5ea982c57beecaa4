"""A fixed probe of how fast the host runs Python at the moment.

The same pass over the same items can take half again as long for seconds
or minutes at a time on a shared host, with no change in the work done.
Every timed interval is therefore also reported scaled by REFERENCE_S over
the probe's time measured next to it: seconds at the host speed where the
probe takes REFERENCE_S.  The probe is fixed code that does not touch repst
(Fraction products and sums, as in the engine's inner loops), so at a given
host speed a change to repst moves the scaled times in proportion to the
wall times.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 1e-3
_PAIRS = [(Fraction(3 ** k + 7, 2 ** (k % 13) + 5), Fraction(k * 1000003 + 1, 97 + k))
          for k in range(1, 150)]


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    start = perf_counter()
    acc = Fraction(0)
    for a, b in _PAIRS:
        acc += a * b
    row = [Fraction(0)] * 20
    for i, (a, b) in enumerate(_PAIRS[:60]):
        row[i % 20] += a - b
    return perf_counter() - start


class Probes:
    """Probe times in the order taken, each stamped with when it ended."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def take(self) -> None:
        seconds = probe()
        self.at.append(perf_counter())
        self.seconds.append(seconds)

    def scale(self, start: float, end: float) -> float:
        """The factor for an interval: REFERENCE_S over the mean of the last
        probe before it and the first after it (or the nearest one, at the ends)."""
        before = self.seconds[max(bisect_right(self.at, start) - 1, 0)]
        after = self.seconds[min(bisect_left(self.at, end), len(self.at) - 1)]
        return 2 * REFERENCE_S / (before + after)
