"""Speed probe: how fast the CPU runs at each moment of a timed step.

On a shared host the speed of one vCPU can swing by a factor of two within
a second and drift for minutes, so the raw wall time of the same pass can
spread by 30% from run to run.  The probe samples that speed while the
program runs.  A SIGALRM every INTERVAL_S seconds runs a fixed pure-Python
kernel and records how long it took.  The kernel is the program's hot loop
in miniature: squared distances, then a sort.  A window's reference time is
its wall time, less the probe's own time, with each moment weighted by the
speed at that moment relative to the reference speed:

    ref_s = net_s * mean(REFERENCE_SAMPLE_S / d_i)

That is the time the same work would take at the reference speed, at which
one sample takes REFERENCE_SAMPLE_S.  The samples are taken at even steps
of wall time, so the mean of 1/d weights every moment alike.  A sample that
was stretched by a descheduling therefore counts for little, not for a lot.
The probe costs about 2% of the window's wall time, and that share is
subtracted.  The collector is off while a sample runs, so the probe never
collects the program's garbage on its own time.
"""

import contextlib
import gc
import random
import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_SAMPLE_S = 0.0005  # one sample on the reference machine: 0.4-0.6 ms
_UNITS = 5
_rng = random.Random(0)
_POINTS = [tuple(_rng.random() for _ in range(8)) for _ in range(40)]
_SUBJECT = _POINTS[0]


def _kernel():
    for _ in range(_UNITS):
        sorted((sum((a - b) * (a - b) for a, b in zip(_SUBJECT, p)), i)
               for i, p in enumerate(_POINTS))


def sample():
    """Seconds the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Window:
    """One probed stretch of time: its wall time and the probe's samples."""

    def __init__(self):
        self.wall_s = 0.0
        self.samples = []

    @property
    def net_s(self):
        return self.wall_s - sum(self.samples)

    @property
    def speed(self):
        """Mean speed relative to the reference speed (1.0 = reference)."""
        return statistics.fmean(REFERENCE_SAMPLE_S / d for d in self.samples)

    @property
    def ref_s(self):
        return self.net_s * self.speed


class SpeedProbe:
    """Samples the CPU's speed from a SIGALRM handler inside `window()`."""

    def __init__(self):
        self._current = None

    def _on_alarm(self, signum, frame):
        if self._current is not None:
            self._current.samples.append(sample())

    @contextlib.contextmanager
    def window(self):
        win = Window()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = time.perf_counter()
        try:
            win.samples.append(sample())  # a window shorter than INTERVAL_S gets one too
            self._current = win
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            yield win
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._current = None
            win.wall_s = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
