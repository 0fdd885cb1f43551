"""Samples how fast the host runs while the workloads run.

The benchmark's host shares its cores with other tenants, and the same code
runs up to twice as slow for stretches of a second to minutes. A run
therefore interrupts itself every `INTERVAL_S` (SIGALRM from an interval
timer) to time a fixed probe of 0.6 ms in a quiet phase: numpy calls on short
vectors, small array allocations and one matrix product at the workloads'
sizes. A timed step is then reported in reference seconds:

    (measured seconds - probe seconds inside the step)
        * REFERENCE_S / mean probe duration inside the step

so the host's speed over the step itself, not a snapshot taken before or
after it, cancels out. The probe does not touch the package and its data
fit in the core's own caches, so a change to the package moves the scaled
times and little moves the probe but the host. An interpreted loop is left
out: it slows least of all work in the host's slow phases. Probes cost
about 2% of a step and are subtracted; in traced passes they are part of
the self time of whatever span they interrupt.
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# About the seconds one probe takes on a 2-vCPU Xeon VM at 2.0 GHz in a
# quiet phase; it only sets the scale of the reported times.
REFERENCE_S = 0.0006
# A step with fewer probes inside is scaled by this many probes nearest it.
MIN_PROBES = 3

_rng = np.random.default_rng(20170322)
_A = _rng.standard_normal((64, 64))
_u = _rng.standard_normal(64)
_X = _rng.standard_normal((100, 80))
_Y = _rng.standard_normal((150, 80))


def _probe_load():
    acc = 0.0
    for k in range(200):
        d = _u - _A[k & 63]
        acc += float(np.exp(-np.dot(d, d) * 1e-3))
    for _ in range(60):
        acc += float((np.zeros(2000) + 1.0)[0])
    for _ in range(2):
        acc += float((_X @ _Y.T)[0, 0])
    return acc


class HostProbe:
    """Probes on a timer between `start` and `stop`; `scaled` converts a
    timed step to reference seconds."""

    def __init__(self):
        self.starts, self.durations = [], []
        self._previous = None

    def _probe(self, *_):
        start = time.perf_counter()
        _probe_load()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self):
        for _ in range(20):  # warm-up, not kept
            _probe_load()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scaled(self, start, end):
        """Reference seconds of the step timed from `start` to `end`."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.durations[lo:hi])
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            if hi < len(self.starts) and (lo == 0 or
                                          self.starts[hi] - end < start - self.starts[lo - 1]):
                hi += 1
            else:
                lo -= 1
        per_probe = sum(self.durations[lo:hi]) / (hi - lo)
        return (end - start - inside) * REFERENCE_S / per_probe
