"""Machine speed, sampled while a workload runs, to scale its timings to one reference speed.

On a shared 2-core machine the same code runs up to 1.7x slower for
stretches of seconds to minutes, because of load outside this container.
Process CPU time slows down with it, so it is no escape. A fixed probe timed
before and after a step tracks these swings poorly; a probe interleaved with
the step tracks them well. So a timer signal interrupts the process every
``INTERVAL_S`` and times ``_probe`` between two bytecodes of whatever the
main thread is running. A step that took 6 s while the probe ran 1.5x slower
than ``REFERENCE_S`` counts as 4 s at reference speed.

The probe is pure-Python work on small objects, like most of the package's
per-row code. It costs about 0.5% of the main thread's time. The scaling
assumes the main thread is busy: a thread that mostly waits, as in a
workload dominated by a fixed remote service time, is not scaled.
"""

from __future__ import annotations

import signal
import statistics
import time

# The probe's mean time on the 2-core machine the workload sizes were tuned
# on, in its fast phase; scaled figures read like wall figures there.
REFERENCE_S = 90e-6
INTERVAL_S = 0.02


def _probe() -> dict:
    d = {}
    for i in range(300):
        d[str(i)] = float(i) * 0.5
    return d


class SpeedSampler:
    """Times the probe on every SIGALRM; ``slowness`` reports and clears the samples."""

    def __init__(self):
        self._samples: list[float] = []

    def start(self) -> None:
        for _ in range(50):  # the first calls pay for warming up; keep them out
            _probe()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self._samples.append(time.perf_counter() - start)

    def slowness(self) -> float:
        """Mean probe time since the last call, over REFERENCE_S (1.0 without samples)."""
        samples, self._samples = self._samples, []
        return statistics.fmean(samples) / REFERENCE_S if samples else 1.0
