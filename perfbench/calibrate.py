"""Core-speed calibration for timings on a shared machine.

The core's speed drifts with the load its neighbours put on a shared
machine; on a 2-core virtual machine, by 15 to 50 % over tens of
seconds.  A ``Calibrator`` times a
fixed piece of work from a profiling-timer signal while jobs run on the
same core, and scales the jobs' times to a reference core.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter


class Calibrator:
    """Samples of a fixed piece of work; inside ``with`` one is taken
    every ``INTERVAL_S`` seconds of CPU time.

    The work is interpreter steps and shifts of an 8 KiB integer, with the
    garbage collector off: it makes no objects the collector tracks, so it
    neither starts nor shifts the program's collections and never walks
    the program's heap.  It shares the core's caches with the program; on
    the machine in ``baseline.json`` a sample taken right after 64 MiB
    were written reads 1 to 5 % slower than one taken warm, which bounds
    what a change to the program's working set can do to the scale.
    """

    LOOPS = 4000
    SHIFTS = 100
    BIG = (1 << (1 << 16)) - 12345
    REFERENCE_S = 0.00045  # the work's time on the reference core
    INTERVAL_S = 0.01
    WINDOW = 20  # samples that give one job's speed

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        acc = 0
        for i in range(self.LOOPS):
            acc += i * i
        big = self.BIG
        for _ in range(self.SHIFTS):
            big = (big >> 1) ^ self.BIG
        elapsed = perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def speed(self, first: int, last: int) -> float:
        """The work's reference time over its mean measured time, from
        sample ``first`` to ``last``, widened to ``WINDOW`` samples around
        them for short jobs."""
        if last - first < self.WINDOW:
            first = max(0, (first + last - self.WINDOW) // 2)
            last = first + self.WINDOW
        samples = self.samples[first:last]
        return self.REFERENCE_S * len(samples) / sum(samples) if samples else 1.0
