"""Host-speed scaling for the benchmark's timings.

On a shared host the speed of one core changes by up to 2x from one second
to the next while other tenants load the machine, and raw medians of whole
runs drift by 10-30% between runs, which no number of iterations averages
out. So every time the benchmark reports is scaled to a reference host
speed. While a command runs, a timer fires every ``INTERVAL_S`` and runs
``probe()``, a fixed pure-Python task that uses no sdnsim code; a few more
probes run just before and just after the command. Each probe gives the
host's speed relative to the reference, ``REFERENCE_S`` over the probe's
time. The command's scaled time is its host seconds, minus the time spent
inside the timer-fired probes, times the mean of those speeds: the probes
are evenly spread in time, so that mean times the host seconds estimates
the work done in reference seconds. A change to sdnsim moves the command's
time but not the probes, so it shows in full.

The timer uses SIGALRM, so this works on POSIX hosts only, in the main
thread.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05  # one probe per 50 ms of command time: about 2% overhead
EDGE_PROBES = 10   # probes just before and just after each command
REFERENCE_S = 0.001  # probe seconds at the reference host speed
PROBE_ROUNDS = 2000

_TABLE = {i: i * 7 for i in range(256)}


def probe() -> float:
    """Host seconds of a fixed ~1 ms pure-Python task. It allocates no
    container objects, so it cannot start a garbage collection inside the
    code it interrupts."""
    t0 = time.perf_counter()
    h = 0
    for i in range(PROBE_ROUNDS):
        h = (h * 31 + _TABLE[i & 255]) & 0xFFFFFFFF
        h ^= len("%d" % i)
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs callables under the probe timer and scales their host time."""

    def __init__(self):
        self.stolen = 0.0  # seconds spent in timer-fired probes so far

    def clock(self) -> float:
        """``perf_counter()`` without the time spent in timer-fired probes."""
        return time.perf_counter() - self.stolen

    def run(self, fn):
        """Call ``fn()`` under the probe timer. Returns its result, its host
        seconds net of probes, and the scale that turns host seconds into
        reference seconds."""
        samples = [probe() for _ in range(EDGE_PROBES)]

        def on_alarm(signum, frame):
            dt = probe()
            samples.append(dt)
            self.stolen += dt

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = self.clock()
        try:
            result = fn()
        finally:
            seconds = self.clock() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        samples.extend(probe() for _ in range(EDGE_PROBES))
        return result, seconds, statistics.mean(REFERENCE_S / dt for dt in samples)
