"""Machine-speed probe used to express times in reference seconds.

The hosts this benchmark runs on share cores with other tenants, and
their speed drifts by up to about 20% over seconds to minutes (a fixed
loop measured 0.40-0.70 s from one half-second window to the next on a
2-core virtual machine). Wall-clock throughput then varies more between
runs than any useful regression bound. The probe runs a fixed loop of small
complex numpy operations, the kind that dominates rpmix's own hot path,
between calls; a call's time multiplied by the probe's rate around it,
divided by ``NOMINAL_RATE``, is the call's time in reference seconds:
the time it would take at the nominal probe rate. Speed drift then
cancels, while a change to rpmix, which the probe never calls, does not.
"""

from __future__ import annotations

import time

import numpy as np

# Probe iterations per second on a quiet 2-core x86-64 virtual machine
# (Python 3.11, numpy 2.4).
NOMINAL_RATE = 150_000.0
# Probe time after each call, as a share of the call's time, and its floor.
PROBE_SHARE = 0.1
PROBE_MIN_S = 0.005
_CHUNK = 100


class SpeedProbe:
    def __init__(self):
        self._a = np.eye(4, dtype=complex) * 0.3
        self._mask = np.ones((4, 4))

    def rate(self, seconds: float) -> float:
        """Probe iterations per second, measured for at least ``seconds``."""
        a, mask = self._a, self._mask
        m = a
        n = 0
        start = time.perf_counter()
        while True:
            for _ in range(_CHUNK):
                p = mask * m
                m = a + 1e-3 * (np.trace(p).real * m - p)
            n += _CHUNK
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return n / elapsed

    def after(self, seconds: float) -> float:
        """Probe rate to pair with a call that just took ``seconds``."""
        return self.rate(max(PROBE_MIN_S, PROBE_SHARE * seconds))


def ref_seconds(seconds: float, rate: float) -> float:
    return seconds * rate / NOMINAL_RATE
