"""The host's speed, gauged while a benchmark process works.

This host's speed drifts by 20-40 % over seconds, as neighbours load the
machine, and a whole run can fall in a slow or a fast spell.  ``HostSpeed``
runs a fixed reference loop every INTERVAL seconds on the same CPU and
thread as the work it gauges, interleaved with it by a SIGALRM timer.
The samples fall evenly in wall time, so the work done in a stretch of
wall time T is proportional to T times the mean of 1/r over its samples r
(the slowest and fastest tenth dropped); ``take`` returns the reciprocal
of that mean, and run.py divides the work's wall time by it.  The loop is timed in thread CPU time, so a
thread that a pipeline might start cannot make it look slower.  Sampling
costs about 2 % of the work.  Nothing here imports tfslab.
"""

import signal
import time

import numpy as np

# inputs of the reference loop: a complex vector the size of a contour
# quadrature and floats to render as text
_REF_Z = 2.0 * np.exp(1j * np.linspace(0.0, 3.0, 128))
_REF_FLOATS = [k / 61.0 + 1.0 / 3.0 for k in range(60)]


def reference_loop():
    """Fixed work, independent of tfslab: a Python integer loop, small
    complex numpy expressions and float formatting -- the kinds of work the
    pipelines spend their time on."""
    acc = 0
    for k in range(1000):
        acc += k * k
    for _ in range(8):
        acc += (np.exp(_REF_Z) * _REF_Z**0.6 / (_REF_Z - 0.5)).sum().real
    return acc, ",".join("%.17g" % x for x in _REF_FLOATS)


class HostSpeed:
    """Reference-loop CPU times, sampled every INTERVAL seconds between
    ``start`` and ``stop``."""

    INTERVAL = 0.02

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.thread_time()
        reference_loop()
        self.samples.append(time.thread_time() - start)

    def start(self):
        reference_loop()  # first-use work outside any sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self):
        """Trimmed harmonic mean of the reference times since the last
        take (one fresh sample if the timer did not fire)."""
        if not self.samples:
            self._sample(None, None)
        s = sorted(self.samples)
        cut = len(s) // 10
        s = s[cut:len(s) - cut]
        self.samples = []
        return len(s) / sum(1.0 / r for r in s)
