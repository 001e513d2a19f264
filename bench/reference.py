"""A fixed unit of pure-Python work that tracks how fast the machine runs now.

On a shared host the same fixed work runs up to about 2x slower for
stretches of seconds to minutes, as other tenants load the physical cores;
``time.process_time`` grows with ``perf_counter``, so the slowdown is in
the speed of each instruction, not in time taken away from the process.  A
run of half a minute can sit wholly inside a slow stretch, so neither a
longer run nor the fastest of several passes removes it.

The benchmark therefore spends a fixed share of each pass, ``SHARE``, on
this unit, run in bursts before each job and between its solve and its
verify, and scales each piece of timed work by ``NOMINAL_S`` over the
median time of the unit in the nearest bursts before and after it: a time
then reads as the seconds it would take at the speed the machine had when
the unit took ``NOMINAL_S``.  Scaling cannot undo a slowdown that begins
and ends within one piece of work, so some spread remains.

The unit has two parts.  It walks a table of random bytes far larger than
a core's own caches in a pseudo-random order, so, like the package's
graphs of Python objects, it runs at the speed of the cache and memory
that the tenants share; and it hashes, sorts and sums small integers in
cache, like the package's per-call work on small instances.  On a 2-vCPU
VM, the interquartile spread between passes of random-e2e was 0.39
measured, 0.095 scaled by the walk alone and 0.086 by both parts; on
small-exact it was 0.076, 0.073 and 0.046.  The unit makes only a few
container objects, so it does not drive garbage collection, and it calls
nothing in the package, so a change to the package never moves it.
"""

from __future__ import annotations

import random
import time
from functools import cache
from statistics import median

# About the median seconds one unit took on a 2-vCPU 2.1 GHz Xeon VM with
# Python 3.11; it sets only the scale of the reported times.
NOMINAL_S = 0.055
SHARE = 0.15
# single samples scatter; three a side steadied short jobs' times the most
SIDE_SAMPLES = 3
TABLE_BYTES = 1 << 25
STEPS = 100_000
ROUNDS = 8
clock = time.perf_counter


@cache
def _inputs() -> tuple[bytearray, list[int]]:
    """The table, filled a chunk at a time so it never needs twice its size,
    and the small integers."""
    rng = random.Random(20070766)
    table = bytearray(TABLE_BYTES)
    chunk = 1 << 20
    for k in range(0, TABLE_BYTES, chunk):
        table[k:k + chunk] = rng.randbytes(chunk)
    return table, [rng.randrange(1 << 30) for _ in range(8_000)]


def _work() -> int:
    table, small = _inputs()
    # a full-period linear congruential walk over the table's indices
    mask, i, total = TABLE_BYTES - 1, 0, 0
    for _ in range(STEPS):
        i = (0x9E3779B1 * i + 12345) & mask
        total += table[i]
    for _ in range(ROUNDS):
        index = {x: k for k, x in enumerate(small)}
        for x in sorted(small):
            total += index[x] % 13
    return total


def measure() -> float:
    """Seconds one unit of reference work takes now."""
    _inputs()
    start = clock()
    _work()
    return clock() - start


class Speed:
    """Reference timings taken in bursts between the jobs of a pass or set-up.

    ``keep_up()`` is called between pieces of timed work: it times the unit
    until the time spent on it since the object was made is at least
    ``SHARE`` of the time elapsed, and at least once, and returns the
    index of the burst it took (which may be empty).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._bursts: list[list[float]] = []
        self._start = clock()
        self._spent = 0.0

    def keep_up(self) -> int:
        burst = []
        while not self.samples or self._spent < SHARE * (clock() - self._start):
            t = measure()
            self.samples.append(t)
            burst.append(t)
            self._spent += t
        self._bursts.append(burst)
        return len(self._bursts) - 1

    def factor(self, first: int, last: int) -> float:
        """Factor from measured to nominal seconds for work done between
        bursts ``first`` and ``last``.

        It is ``NOMINAL_S`` over the median of the samples of the bursts
        from ``first`` backwards and from ``last`` onwards, taking whole
        bursts until each side has ``SIDE_SAMPLES``, so it follows the
        machine's speed at the time the work ran.
        """
        before = self._gather(range(first, -1, -1))
        after = self._gather(range(last, len(self._bursts)))
        return NOMINAL_S / median(before + after)

    def _gather(self, indices) -> list[float]:
        out: list[float] = []
        for i in indices:
            if len(out) >= SIDE_SAMPLES:
                break
            out += self._bursts[i]
        return out
