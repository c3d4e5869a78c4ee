"""Host-speed sampling for the untraced run.

On a small shared machine the same code runs up to 2x slower in phases that
last from under a second to minutes, because other tenants load the host;
the slowdown shows in thread CPU time too, so no clock of the process
escapes it. A statistic inside one run cannot undo a phase that covers the
whole run, but a fixed piece of code timed in the same moments can: it is
slowed by the same phases.

``HostSpeed`` runs ``calibrate`` from a ``SIGALRM`` handler every
``INTERVAL_S`` while the untraced run measures. A Python signal handler runs
in the main thread between bytecodes, so the samples fall inside the timed
operations, on the same core and in the same phase of the host, and cost no
second thread or process. Each sample runs the kernel twice and times the
second run, so that the caches the operation left behind do not bill the
measured code to the kernel.

After the run, each sample gets a local scale: ``CALIBRATE_REF_S`` over the
median of the ``LOCAL_SAMPLES`` samples around it (the median, because now
and then one sample takes several times as long as the rest). A timing has
the time spent in samples taken out and is multiplied by the mean local
scale of the samples inside it, or by that of the next sample if none fell
inside: the result is the time at the speed the host has when
``calibrate`` takes ``CALIBRATE_REF_S``. Scaling each stretch of 30 ms by
its own sample follows phases shorter than an operation.

``calibrate`` mixes the kinds of work packwise does: interpreter loops over
small dicts, numpy reductions on 5-element vectors (as in Pearson matching)
and one broadcast distance tensor (as in the clustering indices). It imports
nothing from packwise, so no change to the library changes it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.03          # between samples; a sample takes about 0.8 ms
LOCAL_SAMPLES = 5          # samples whose median gives one sample's local scale
CALIBRATE_REF_S = 0.30e-3  # one calibrate() on a quiet 2-core Xeon VM at 2.0 GHz

_A = np.linspace(0.0, 1.0, 5)
_B = _A[::-1].copy()
_POINTS = np.random.default_rng(0).random((40, 5))


def calibrate() -> float:
    """A fixed piece of work of about 0.3 ms; returns a checksum."""
    s = 0.0
    for i in range(8):
        a = _A + i
        ca, cb = a - a.mean(), _B - _B.mean()
        s += float((ca * cb).sum() / np.sqrt((ca ** 2).sum() * (cb ** 2).sum()))
        d = {}
        for j in range(25):
            d[j] = j * 1.5 + s
        s += sum(d.values()) * 1e-9
    diff = _POINTS[:, None, :] - _POINTS[None, :, :]
    return s + float(np.sqrt((diff ** 2).sum(axis=2)).max())


class HostSpeed:
    """Samples ``calibrate`` on a timer while in use as a context manager.

    ``mark()`` returns a reading: the time, the time spent in samples so far
    and the number of samples. ``own()`` turns two readings into the time
    spent outside samples; ``scale()``, once the context has exited, gives
    the factor that rescales the time between two sample indices to the
    reference speed. Never entered, it is a plain wall clock with scale 1.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.spent = 0.0       # seconds inside the handler, both kernel runs
        self.samples = []      # seconds of each timed kernel run
        self.local = []        # each sample's local scale, set on exit
        self._previous = None

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        calibrate()
        t1 = time.perf_counter()
        calibrate()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        half = LOCAL_SAMPLES // 2
        self.local = [CALIBRATE_REF_S / statistics.median(
                          self.samples[max(0, j - half):j + half + 1])
                      for j in range(len(self.samples))]
        return False

    def mark(self) -> tuple:
        return (time.perf_counter(), self.spent, len(self.samples))

    @staticmethod
    def own(start: tuple, end: tuple) -> float:
        """Seconds between two readings, less the time spent in samples."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def scale(self, first: int, last: int) -> float:
        """The mean local scale of samples ``first`` to ``last - 1``, or
        sample ``first``'s (the last one's at the end) if the range is empty."""
        if not self.local:
            return 1.0
        inside = self.local[first:last]
        return (statistics.fmean(inside) if inside
                else self.local[min(first, len(self.local) - 1)])
