"""Machine-speed normalisation by an interleaved reference loop.

On the shared 2-CPU machine this benchmark was defined on, the same
fixed pure-Python work took anywhere from 13 ms to 22 ms depending on
the second it ran in, with ``time.process_time`` tracking wall time: the
machine's speed drifts over seconds, so neither a CPU-time clock nor a
longer run removes it.  A fixed reference loop of stdlib work (small Fraction
arithmetic, big-integer gcd, dict and str handling -- the operations
padicqm spends its time in, but none of its code) is run as a burst of
three right after every measured interval; a burst's value is the median
of its three runs.  Each interval is reported in *reference seconds*:
its wall time scaled by ``REFERENCE_NOMINAL_S`` over the mean of the
bursts just before and just after it.  A change to padicqm moves the
interval and not the reference, so it shows in full; a change in the
machine's speed moves both, and cancels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from statistics import median
from time import perf_counter

#: Time of one reference loop on the defining machine (x86_64 VM, 2 vCPU,
#: Python 3.11.7) at its fast speed; the scale of every reported time.
REFERENCE_NOMINAL_S = 0.0016
_BIG = (3**3000 + 7, 5**2000 + 11)


def reference_work() -> int:
    """A fixed amount of stdlib work, 1.6 ms on that machine at its fast speed."""
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k % 7 + 1, k + 3) * Fraction(2 * k + 1, 5)
    n = 0
    for k in range(1, 600):
        n += gcd(k * 7919, 104729 * (k + 1)) + (k * k) % 13
    a, b = _BIG
    for k in range(1, 6):
        n += gcd(a * k + 1, b * (k + 2)).bit_length()
    names = {i: str(i) for i in range(150)}
    return n + acc.denominator % 7 + len("".join(names.values()))


def reference_time(runs: int = 3) -> float:
    """Median seconds of ``runs`` back-to-back reference runs."""
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        reference_work()
        times.append(perf_counter() - t0)
    return median(times)


class ReferenceClock:
    """Times calls in reference seconds, a reference burst between calls."""

    def __init__(self):
        self._last = reference_time()

    def time(self, fn, *args):
        """Return ``(fn(*args), wall seconds, reference seconds)``."""
        before = self._last
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        self._last = reference_time()
        return result, wall, wall * REFERENCE_NOMINAL_S * 2 / (before + self._last)
