"""A reference clock that follows the machine's momentary speed.

On a shared machine the same Python code runs up to about twice as slowly
for seconds to minutes at a time, and process CPU time inflates exactly
as wall time does.  ``Pace`` runs a fixed snippet of the benchmark's own
Python work every ``INTERVAL_S`` seconds from a timer signal and keeps
each reading.  There are two snippets, one for each kind of work that
dominates a workload, because the two slow down differently when the
machine is contended: ``compute`` does exact-fraction and dict work, as
the module and Hom code of the gentle layer does; ``copy`` copies
rotations of a long tuple, as the words layer does on long words.

The machine's speed at a reading ``r`` is ``ref_s / r``: one at the
reference speed, where the snippet takes its ``ref_s`` seconds.  A
measured interval is multiplied by the mean speed of the readings taken
in it, which gives the time the same work takes at the reference speed.
Time spent in the snippet is taken out of every measured interval.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
# an interval holding fewer readings also uses the latest earlier ones
MIN_READINGS = 5

_ROW = tuple(range(400))
_LONG = tuple(range(1000))


def _compute() -> None:
    acc: dict[int, Fraction] = {}
    x = Fraction(1, 3)
    for i in range(120):
        k = i % 17
        acc[k] = acc.get(k, 0) + x * i
    _ = [_ROW[k:] + _ROW[:k] for k in range(0, 400, 8)]


def _copy() -> None:
    _ = [_LONG[k:] + _LONG[:k] for k in range(0, 1000, 10)]


# each snippet with its time at the reference speed (its fast-state
# reading on a 2-CPU x86-64 virtual machine, Python 3.11), which fixes
# the scale only
SNIPPETS = {"compute": (_compute, 0.00036), "copy": (_copy, 0.00055)}


def reading(kind: str) -> float:
    """Seconds taken by one run of a snippet."""
    snippet = SNIPPETS[kind][0]
    start = perf_counter()
    snippet()
    return perf_counter() - start


def speed(kind: str, count: int) -> float:
    """Mean speed over ``count`` back-to-back readings."""
    ref_s = SNIPPETS[kind][1]
    return statistics.fmean(ref_s / reading(kind) for _ in range(count))


class Pace:
    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.ref_s = SNIPPETS[kind][1]
        self.readings: list[float] = []
        self.spent = 0.0  # seconds spent in the timer handler

    def _tick(self, *_signal_args) -> None:
        start = perf_counter()
        self.readings.append(reading(self.kind))
        self.spent += perf_counter() - start

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        """The clock, the handler time and the reading count, read together."""
        while True:
            spent = self.spent
            now = perf_counter()
            count = len(self.readings)
            if spent == self.spent:
                return now, spent, count

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float | None]:
        """Wall seconds since ``mark`` without the handler's time, and the
        same scaled to the reference speed by the readings taken meanwhile
        (``None`` if the clock was never started)."""
        start, spent0, first = mark
        end, spent, last = self.mark()
        wall = end - start - (spent - spent0)
        readings = self.readings[max(0, min(first, last - MIN_READINGS)) : last]
        if not readings:
            return wall, None
        return wall, wall * statistics.fmean(self.ref_s / r for r in readings)
