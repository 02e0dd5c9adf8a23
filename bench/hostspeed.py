"""How fast the host runs the interpreter right now, and times scaled to a
fixed host speed.

On a shared VM the whole interpreter runs up to 2.8x slower for stretches
of seconds, whatever it executes, and process CPU time slows with it.  A
fixed piece of pure-Python work, timed next to an operation, measures
that swing; ``scaled`` divides it out and leaves the operation's cost in
seconds at REFERENCE_S, the loop's time on an idle host.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Seconds reference_loop takes on an idle host of the kind the benchmark
# was written on (2-vCPU Xeon VM at 2.1 GHz, Python 3.11).
REFERENCE_S = 0.00125


def reference_loop() -> int:
    """Fixed pure-Python work: integer arithmetic, as in the oracle's Python
    loops, and small-set building and sorting, as in the engine and the
    change of basis."""
    total = 0
    for i in range(10000):
        total += i * i % 7
    sets = sorted(frozenset(range(i, i + 60, 3)) for i in range(0, 3000, 7))
    return total + len(sets)


def loop_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def scaled(seconds: float, loop: float) -> float:
    """``seconds`` measured while reference_loop took ``loop`` seconds,
    brought to the speed at which it takes REFERENCE_S."""
    return seconds * REFERENCE_S / loop


class Sampler:
    """Times reference_loop every 100 ms from a SIGALRM handler while a pass
    runs.  The handler's own time is counted in ``spent``, so callers can
    keep it out of the operations they time."""

    INTERVAL_S = 0.1

    def __init__(self):
        self.at: list[float] = []  # midpoint of each sample
        self.cost: list[float] = []  # seconds the loop took
        self.spent = 0.0  # seconds spent sampling

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.cost.append(end - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def cost_during(self, start: float, end: float) -> float:
        """Median loop time sampled within [start, end], else the nearest sample."""
        i, j = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        if i < j:
            return statistics.median(self.cost[i:j])
        near = [k for k in (i - 1, i) if 0 <= k < len(self.at)]
        return self.cost[min(near, key=lambda k: abs(self.at[k] - start))]
