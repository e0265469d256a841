"""CPU speed sampling, so that times can be reported at a reference speed.

On a shared host the speed of a core swings by 30-60% within seconds
(another tenant on the sibling hyper-thread, frequency changes), and wall
and CPU time swing with it.  The benchmark therefore times a fixed
pure-Python kernel, the same kind of work as the ops, right next to what it
measures and scales each time by ``REF_S / kernel time``: the time the work
would have taken at the speed at which the kernel runs in exactly ``REF_S``.

Inside a worker, :class:`SpeedProbe` runs the kernel from a ``SIGALRM``
handler every ``INTERVAL_S``, in the op's own thread (no thread or process
is added); the time spent there is taken out of the op's time.
"""

from __future__ import annotations

import signal
import statistics
import time

ITERATIONS = 10_000
REF_S = 1e-3
INTERVAL_S = 0.1


def kernel() -> float:
    """Seconds one pass of the calibration kernel takes now."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(ITERATIONS):
        s += (i * 0.5) ** 0.5
    return time.perf_counter() - t0


def kernel_median() -> float:
    return statistics.median(kernel() for _ in range(5))


class SpeedProbe:
    """Kernel samples ``(start, seconds)`` taken on entry, every
    ``INTERVAL_S`` while the probe is entered, and on exit."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.at.append(time.perf_counter())
        self.took.append(kernel())

    def __enter__(self) -> SpeedProbe:
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def inside(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` spent in the kernel."""
        return sum(d for t, d in zip(self.at, self.took) if start <= t < end)

    def scale(self, start: float, end: float) -> float:
        """``REF_S`` over the mean kernel time during ``[start, end]``,
        widened by one interval on each side so that short ops have samples."""
        near = [d for t, d in zip(self.at, self.took)
                if start - INTERVAL_S <= t <= end + INTERVAL_S]
        if not near:  # the handler waits for a long native call to return
            near = [min(zip(self.at, self.took), key=lambda s: abs(s[0] - start))[1]]
        return REF_S / statistics.fmean(near)
