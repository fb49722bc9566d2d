"""A clock that runs at the machine's current speed.

The benchmark shares a few cores with other work, and their speed swings
by up to a factor of two within seconds (a fixed loop of rational
arithmetic takes 0.4 ms in one second and 0.7 ms in the next), so wall
times of the same calls spread by 20% and more between runs.

``ReferenceClock`` samples the speed on a timer: every PERIOD_S of wall
time a SIGALRM handler times REFERENCE_ITERS steps of a fixed loop of
``Fraction`` arithmetic, the kind of work crjet does.  Between samples
the clock advances at NOMINAL_S divided by the latest sample's time, and
it stands still while a sample runs.  Its readings are *reference
seconds*: the time the measured code would take on a machine that runs
the loop in exactly NOMINAL_S.  On a 2-core shared host the per-call
spread of such readings is 1-3%, against about 20% in wall time.

A change that makes crjet do more work still reads slower: the clock
divides out the machine's speed, not the program's.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.01
REFERENCE_ITERS = 100
NOMINAL_S = 0.0004


def reference_loop():
    acc = Fraction(0)
    for i in range(1, REFERENCE_ITERS + 1):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(1, 3)
    return acc


class ReferenceClock:
    """Reference seconds since start(); see the module docstring.

    One clock per process: it owns SIGALRM and ITIMER_REAL while running.
    """

    def __init__(self):
        self.samples = []
        # (reference seconds at the last sample's end, its wall time,
        # reference seconds per wall second), replaced in one assignment
        # so that now() never sees half an update
        self._state = (0.0, time.perf_counter(), 1.0)
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        base, mark, rate = self._state
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._state = (base + (t0 - mark) * rate, t1,
                       NOMINAL_S / (t1 - t0))

    def start(self, since=None):
        """Take a first sample and sample every PERIOD_S from then on.

        `since` is an earlier perf_counter() reading (from this or a
        parent process) at which the clock reads zero; the interval up to
        the first sample runs at that sample's speed.
        """
        t0 = time.perf_counter() if since is None else since
        self._state = (0.0, t0, 1.0)
        self._sample()
        base, mark, rate = self._state
        # the first sample's rate applies to the interval before it too
        self._state = (base * rate, mark, rate)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def now(self) -> float:
        base, mark, rate = self._state
        return base + (time.perf_counter() - mark) * rate

    def now_ns(self) -> int:
        return int(self.now() * 1e9)

    def summary(self) -> dict:
        """Quartiles of the reference loop's wall time over the run."""
        if len(self.samples) < 2:
            return {"reference_samples": len(self.samples)}
        q1, q2, q3 = statistics.quantiles(self.samples, n=4)
        return {"reference_samples": len(self.samples),
                "reference_loop_s": [q1, q2, q3]}
