"""A clock that corrects wall time for the speed of a shared host.

The benchmark runs on cores shared with other tenants. Their speed drifts by
20-40% within seconds, and the mean over a 20-second window still moves by
about 20% from one window to the next, so raw wall times of the same work
differ between runs by more than any useful regression bound.

:class:`SpeedClock` measures that speed while the benchmark runs. A SIGALRM
timer interrupts the process every ``PERIOD_S`` seconds and times a fixed
probe: a pure-Python loop and a loop of numpy operations on 50-element
arrays, run once to warm up and once timed. The probe belongs to the
benchmark, not to the program, so its cost is the same on every commit; its
time says how fast the core is at that moment. :meth:`SpeedClock.now` returns corrected seconds: the time
between two probes counts as its length times ``NOMINAL_PROBE_S`` divided by
the mean probe time at its two ends, and the time spent probing is left out.
On a host as fast as the nominal one, corrected seconds equal wall seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# A typical median time of one timed probe on a 2-vCPU Intel Xeon virtual
# machine (Python 3.11.7, numpy 2.4.6); medians of 4,000 probes ranged over
# 0.53-0.87 ms there.
NOMINAL_PROBE_S = 8.0e-4
PROBE_LOOP = 3000
# Small-array numpy calls are bound by call overhead, as the solver's
# iterations are; of the probes tried (also sparse LU solves, random gathers
# from 32 MB, dict building, sparse matrix assembly), these two tracked trot
# solve times best.
PROBE_NUMPY = 200
PROBE_LEN = 50


class SpeedClock:
    """Host-speed-corrected clock; use as a context manager around the
    timed work. Single-threaded: the probe runs in the main thread."""

    def __init__(self):
        self._vectors = [np.ones(PROBE_LEN) for _ in range(3)]
        self.probes: list[float] = []
        # (work seconds, corrected seconds, probe seconds, time spent probing)
        # at the last probe, replaced in one assignment so that now() never
        # sees half an update.
        self._state = (0.0, 0.0, 1.0, 0.0)
        self._previous_handler = None

    def _probe_once(self) -> None:
        s = 0
        for i in range(PROBE_LOOP):
            s += i * i % 7
        a, b, c = self._vectors
        for _ in range(PROBE_NUMPY):
            a = b * c + a
            np.maximum(a, 0.0, out=a)

    def _measure(self) -> float:
        self._probe_once()
        t0 = time.perf_counter()
        self._probe_once()
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe = self._measure()
        work0, corrected, last, probing = self._state
        work = t0 - probing
        corrected += (work - work0) * NOMINAL_PROBE_S / ((probe + last) / 2.0)
        self.probes.append(probe)
        self._state = (work, corrected, probe, probing + time.perf_counter() - t0)

    def now(self) -> float:
        while True:
            state = self._state
            t = time.perf_counter()
            if state is self._state:
                break
        work0, corrected, last, probing = state
        return corrected + (t - probing - work0) * NOMINAL_PROBE_S / last

    @property
    def probe_seconds(self) -> float:
        return self._state[3]

    def median_probe(self) -> float:
        return statistics.median(self.probes)

    def burst(self, count: int = 15) -> float:
        """Median probe time over ``count`` probes taken now, for work
        too short or too far away (another process) to sample with the
        timer."""
        return statistics.median(self._measure() for _ in range(count))

    @staticmethod
    def corrected(seconds: float, probe: float) -> float:
        """``seconds`` of work done while a probe took ``probe`` seconds,
        rescaled to the nominal host."""
        return seconds * NOMINAL_PROBE_S / probe

    def __enter__(self) -> SpeedClock:
        t0 = time.perf_counter()
        probe = self._measure()
        self.probes.append(probe)
        t1 = time.perf_counter()
        self._state = (t0, 0.0, probe, t1 - t0)
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
