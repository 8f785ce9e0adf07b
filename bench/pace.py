"""Machine pace: how fast this host runs Python code right now.

On a small shared virtual machine the host's CPU speed drifts by 15 to 50 %
over tens of seconds, in CPU time as much as in wall time, so two runs of
the same code a minute apart can differ by more than any bound worth
setting.  The benchmark therefore times a fixed pure-Python reference loop
(stdlib only, no library code, so no change to the library moves it)
between operations, outside the timed region, and states every time at the
reference pace: a time t measured while the loop took r seconds is reported
as t * REFERENCE_S / r.  Raw times are kept in the run metadata.

REFERENCE_S is the loop's median time on a 2-vCPU x86-64 VM with
CPython 3.11, so scaled times read close to raw ones there.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 1.3e-3
READINGS = 5  # loop timings per reading; the reading is their median
EVERY_S = 0.1  # take a new reading when the last is this old

clock = time.perf_counter


def reference_loop() -> int:
    """Dict, tuple, Fraction and big-integer work, the mix the library's
    Laurent polynomial arithmetic runs on."""
    terms: dict[tuple[int, int], Fraction] = {}
    acc = Fraction(0)
    big = 3**200
    for i in range(250):
        key = ((i * 7919) % 61, i & 3)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i % 13 + 1, i % 11 + 1)
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        big = big * (i + 7) % (5**190 + i)
    return len(sorted(terms)) + acc.numerator + big % 97


def reading() -> float:
    """Median time of the reference loop over READINGS runs."""
    times = []
    for _ in range(READINGS):
        start = clock()
        reference_loop()
        times.append(clock() - start)
    return statistics.median(times)


class Pace:
    """Readings taken between operations.  ``mark`` returns the index of
    the latest reading, refreshed when it is older than EVERY_S; after the
    last operation ``close`` takes a final one.  An operation timed after
    reading k is scaled by the mean of readings k and k + 1."""

    def __init__(self):
        self.readings = [reading()]
        self.taken = clock()

    def mark(self) -> int:
        if clock() - self.taken >= EVERY_S:
            self.readings.append(reading())
            self.taken = clock()
        return len(self.readings) - 1

    def close(self) -> None:
        self.readings.append(reading())
        self.taken = clock()

    def factor(self) -> float:
        """Reference time per raw second, from the readings so far."""
        return REFERENCE_S / statistics.median(self.readings)

    def scale(self, seconds: float, mark: int) -> float:
        """``seconds`` measured after reading ``mark``, at the reference pace."""
        around = self.readings[mark] + self.readings[mark + 1]
        return seconds * 2 * REFERENCE_S / around
