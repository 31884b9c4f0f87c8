"""A fixed pure-Python reference kernel, sampled on a timer while the
workload runs, so that op times can be expressed in units of the host's
current speed.

On shared hosts the same op can take 2.7 s or 3.6 s a few seconds apart
with CPU time equal to wall time: the host itself changes speed.  The
kernel below does the kind of work the engine does (tuple keys, dict
updates, modular arithmetic, max by key).  A SIGALRM handler runs one
repetition every PERIOD_S, so samples are spread evenly in time, inside
long ops as well as between short ones.  The time the handler takes is
kept out of every op and span time through `work_clock`.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.025
KERNEL_SIZE = 1500


def kernel() -> int:
    """One repetition of the reference work (about 1 ms); never changes."""
    p = 32003
    work: dict = {}
    for i in range(KERNEL_SIZE):
        mono = (i % 7, (i * 3) % 11, (i * 5) % 13)
        work[mono] = (work.get(mono, 0) + i * 7919) % p
    lead = max(work, key=lambda m: (sum(m), m))
    return work[lead]


class Yardstick:
    """Samples the kernel on an interval timer between start() and stop()."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.stolen = 0.0          # seconds spent inside the handler
        self.stamps: list[float] = []   # work_clock() at each sample
        self.samples: list[float] = []  # kernel duration of each sample
        self._previous = None

    def work_clock(self) -> float:
        """perf_counter() minus the time the sampler has taken so far."""
        return time.perf_counter() - self.stolen

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.stamps.append(t0 - self.stolen)
        self.samples.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, start: float, end: float, pad: float = 0.25) -> float:
        """Mean kernel duration over [start - pad, end + pad] (work clock).

        The pad gives ops shorter than the sampling period some samples
        from just before and after them."""
        lo = bisect.bisect_left(self.stamps, start - pad)
        hi = bisect.bisect_right(self.stamps, end + pad)
        window = self.samples[lo:hi]
        if not window:
            raise RuntimeError("no reference samples near the op")
        return sum(window) / len(window)
