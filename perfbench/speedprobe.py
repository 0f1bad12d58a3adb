"""Host-speed probe that runs inside a benchmark process.

On a shared host the speed of the core a process runs on drifts by tens of
percent over seconds to minutes, with the load of other tenants, so two
launch-to-exit times of the same work differ by that much.  The probe
measures the drift where it happens: a wall-clock timer interrupts the
process every ``PERIOD_S`` seconds and times a small fixed piece of work on
the same core, between two bytecodes of the program.  ``run.py`` subtracts
the probes' own time from each interval and rescales what is left to the
speed at which one probe takes ``REFERENCE_S``:

    reference_s = (interval - probe time) * mean(REFERENCE_S / probe duration)

The mean is over the probes inside the interval, uniform in wall time, so it
is the interval's mean speed; the fastest and slowest tenth are dropped.
The probe work is row indexing and arithmetic on a small numpy array, the
interpreter-bound kind of work that dominates the program at the commit
that introduced the benchmark.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
PROBE_ROWS = 60
# About the median duration of one probe inside a benchmark process on the
# machine named in baseline.json; any fixed value gives comparable numbers.
REFERENCE_S = 125e-6
TRIM = 0.1
MIN_PROBES = 5          # fewer in an interval: use every probe of the process

_POINTS = np.linspace(0.0, 1.0, 2 * (PROBE_ROWS + 1)).reshape(-1, 2)


def probe_work() -> float:
    x = _POINTS
    acc = 0.0
    for i in range(PROBE_ROWS):
        d = x[i + 1] - x[i]
        acc += float(d[0] * d[1])
    return acc


class SpeedProbe:
    """Times ``probe_work`` on a wall-clock timer; keeps (start, duration)."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        t0 = time.monotonic()
        probe_work()
        self.samples.append((t0, time.monotonic() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k:len(values) - k] if k else values)


def reference_seconds(samples, t_lo: float, t_hi: float) -> float:
    """Seconds of [t_lo, t_hi], less probe time, at the reference speed.

    ``samples`` are a process's (start, duration) pairs on the system-wide
    monotonic clock.  Without any sample the raw interval is returned.
    """
    inside = [(t, d) for t, d in samples if t_lo <= t < t_hi]
    net = (t_hi - t_lo) - sum(d for _, d in inside)
    basis = inside if len(inside) >= MIN_PROBES else samples
    if not basis:
        return net
    return net * _trimmed_mean([REFERENCE_S / d for _, d in basis])
