"""Host-speed reference: a fixed pure-Python loop timed throughout a run.

The shared host the benchmark runs on changes speed from one second to
the next and in phases that last minutes: the same pass can take a
third longer in one phase than in the next, and a whole run can sit
inside one phase.  A median over one run's passes cannot remove that.
So the run also times a fixed loop of interpreter work (dict reads and
writes, integer arithmetic), interleaved with the program's own work:
at the start, after every set-up round and pass, and inside a pass at
simulation and chunk boundaries, at most once every :data:`INTERVAL_S`
seconds.  The loop does not depend on the program, so a change to the
program cannot move it.

A piece of work measured between two boundaries is scaled by
:data:`NOMINAL_S` over the mean loop time of the samples taken from
the boundary before it to the boundary after it.  The mean, not the
median: the host flips between a fast and a slow state many times a
second, and the work's time grows with the share of time spent slow,
which the mean follows and the median does not.  The scaled time is
the time on the *nominal host*, on which the loop takes exactly
:data:`NOMINAL_S`.  The time spent in the loop itself is kept out of
every measured time.
"""

from __future__ import annotations

import statistics
import time

__all__ = [
    "NOMINAL_S", "INTERVAL_S", "START_LOOPS", "BOUNDARY_LOOPS",
    "reference_loop", "HostSpeed",
]

#: the loop's time on the nominal host
NOMINAL_S = 0.025
#: least time between two samples inside a measured piece of work
INTERVAL_S = 0.25
#: loops timed at the start of a run (they scale the import time)
START_LOOPS = 3
#: loops timed after each set-up round and pass
BOUNDARY_LOOPS = 2
#: iterations of one loop
LOOP_N = 100_000


def reference_loop(n: int = LOOP_N) -> int:
    """Fixed interpreter work: :data:`NOMINAL_S` on the nominal host."""
    s = 0
    d: dict[int, int] = {}
    for i in range(n):
        k = i & 1023
        d[k] = d.get(k, 0) + (i ^ s)
        s += k
    return s


class HostSpeed:
    """Loop timings taken during one run, and the host time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: host seconds spent in the loop so far
        self.spent_s = 0.0
        #: when False, :meth:`maybe_sample` does nothing (a traced pass)
        self.active = True
        self._last = time.perf_counter()

    def sample(self, loops: int = 1) -> None:
        """Time *loops* loops, one sample each."""
        for _ in range(loops):
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            self.spent_s += t1 - t0
            self._last = t1

    def maybe_sample(self) -> None:
        """One sample if :data:`INTERVAL_S` passed since the last."""
        if self.active and time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, since: int = 0) -> float:
        """Nominal-host seconds per host second over ``samples[since:]``."""
        return NOMINAL_S / statistics.fmean(self.samples[since:])

    def measure(self, fn, *args):
        """Run ``fn(*args)`` up to the next boundary.

        Returns ``(outcome, error, host_s, factor)``: what *fn* returned
        (None if it raised), the exception (or None), its host seconds
        without the loop samples taken inside it, and the scale from the
        samples of the boundary before it through the boundary after.
        """
        since = max(0, len(self.samples) - BOUNDARY_LOOPS)
        spent = self.spent_s
        t0 = time.perf_counter()
        try:
            outcome, error = fn(*args), None
        except Exception as exc:  # the caller counts it
            outcome, error = None, exc
        host_s = time.perf_counter() - t0 - (self.spent_s - spent)
        self.sample(BOUNDARY_LOOPS)
        return outcome, error, host_s, self.factor(since)
