"""Timings corrected for the speed the host gives the benchmark while it runs.

A shared host can run the same code at very different speeds from one minute
to the next: a fixed pure-Python loop has been seen to take 20 ms for minutes
at a time and then 29 ms for minutes.  No statistic over a 20-60 s run takes
such a shift out, so the end-to-end timings are reported in reference
seconds instead.  While a timed region runs, ``SpeedSampler`` interrupts it
every ``interval_s`` (SIGALRM) and times a fixed calibration loop on the
same thread, which tells how fast the host runs this thread at that moment.
The region's time, less the time of the samples taken inside it, is then
scaled by ``REFERENCE_LOOP_S`` over the time-weighted mean loop time:

    reference_s = work_s * REFERENCE_LOOP_S / mean_loop_s

A change that makes the program faster lowers ``work_s`` and leaves the loop
alone, so it lowers ``reference_s`` by the same share; a slower host raises
both and cancels.  The raw times are kept in the run record.

Only one sampler may be active at a time, on the main thread: it owns the
process's SIGALRM handler and real-time interval timer while it runs.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_ITERATIONS = 5000
# about the loop's time on an unloaded 2-vCPU Intel Xeon VM under Python 3.11,
# so that a reference second reads close to a second there
REFERENCE_LOOP_S = 0.0003


def _calibration_loop(n: int = LOOP_ITERATIONS) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class SpeedSampler:
    """Times a region and samples the host's speed while the region runs.

    The region is bracketed by a sample of ``BOUNDARY_LOOPS`` loops at each
    end; with ``interval_s`` set, a one-loop sample is also taken every
    ``interval_s`` inside it.  A region of a fraction of a second can do with
    the two boundary samples alone (``interval_s=None``).
    """

    BOUNDARY_LOOPS = 9

    def __init__(self, interval_s: float | None = 0.02):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []  # (time taken, loop seconds)
        self.start = self.end = 0.0
        self._old_handler = None

    def _sample(self, loops: int = 1) -> None:
        t = time.perf_counter()
        durations = []
        for _ in range(loops):
            begin = time.perf_counter()
            _calibration_loop()
            durations.append(time.perf_counter() - begin)
        self.samples.append((t, statistics.median(durations)))

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> SpeedSampler:
        self._sample(self.BOUNDARY_LOOPS)
        if self.interval_s:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
        self._sample(self.BOUNDARY_LOOPS)

    @property
    def elapsed_s(self) -> float:
        """Wall time of the region, samples included."""
        return self.end - self.start

    @property
    def work_s(self) -> float:
        """Wall time of the region less the samples taken inside it."""
        inside = sum(d for t, d in self.samples if self.start <= t < self.end)
        return self.elapsed_s - inside

    @property
    def mean_loop_s(self) -> float:
        """Loop time averaged over the region's wall time.

        Samples come at irregular times (a signal waits for a long native call
        to return), so each gap between two samples is weighted by its length
        and given the mean of the loop times at its ends.
        """
        pairs = zip(self.samples, self.samples[1:])
        area = sum((t1 - t0) * (d0 + d1) / 2 for (t0, d0), (t1, d1) in pairs)
        return area / (self.samples[-1][0] - self.samples[0][0])

    @property
    def reference_s(self) -> float:
        return self.work_s * REFERENCE_LOOP_S / self.mean_loop_s
