"""Host-speed probe: fixed reference work timed between the measured spans.

On a shared host the speed of the CPU this process gets drifts a lot. On the
2-vCPU machine the benchmark was tuned on, the same 2000-slot Backpressure run
took between 47 ms and 86 ms within one minute. The probe is fixed work of
the same kind as olacsim's: a per-step argmax over a small score table, array
updates and a bounded deque; a dual-ascent loop over a 64-state table; dense
simplex-style pivots. It uses numpy but no olacsim code, so no change to the
program can move it.

The benchmark takes a probe sample at the start of a sweep, before every
``sim.run`` call and at the end. Work between two samples is scaled by
``REFERENCE_S`` / (mean of the two probe times): the result is how long the
work would take on a host where one probe takes ``REFERENCE_S``. Probe time
itself is never part of a measured span.
"""
from __future__ import annotations

import time
from collections import deque

import numpy as np

REFERENCE_S = 0.010


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(20140406)
        self._scores = rng.random((64, 10, 2))
        self._costs = rng.random((64, 10))
        self._base = rng.random(640)
        self._drift = rng.random((640, 2)) - 0.5
        self._dist = rng.dirichlet(np.ones(64))
        self._tableau = rng.random((66, 700))
        self._tableau[:, :66] += 66.0 * np.eye(66)  # diagonally dominant: pivots stay bounded
        self.samples: list[tuple[float, float]] = []  # (begin, end) of each probe

    def _work(self) -> float:
        # slot loop: decide, update, ledger append
        q = np.zeros(2)
        recent = deque(maxlen=50)
        for i in range(600):
            s = (i * 7) % 64
            k = int(np.argmax(-self._costs[s] - self._scores[s] @ q))
            q = np.maximum(q - self._scores[s, k], 0.0) + 0.1
            recent.append((i, float(q[0])))
        # dual ascent: evaluate a 64-state, 10-action dual and step
        gamma = np.zeros(2)
        rows0 = np.arange(64) * 10
        for i in range(300):
            scores = self._base + self._drift @ gamma
            rows = rows0 + scores.reshape(64, 10).argmin(axis=1)
            value = float(self._dist @ scores[rows])
            gamma = np.maximum(gamma + (1.0 / (10 + i)) * (self._dist @ self._drift[rows]), 0.0)
        # dense simplex pivots
        t = self._tableau.copy()
        for r in range(60):
            t[r] /= t[r, r]
            col = t[:, r].copy()
            col[r] = 0.0
            t -= np.outer(col, t[r])
        return float(q.sum() + value + t[0, -1])

    def sample(self) -> int:
        """Time one probe; returns its index."""
        begin = time.perf_counter()
        self._work()
        self.samples.append((begin, time.perf_counter()))
        return len(self.samples) - 1

    def scale(self, i: int) -> float:
        """Reference seconds per host second between samples ``i`` and ``i + 1``."""
        (b0, e0), (b1, e1) = self.samples[i], self.samples[i + 1]
        return REFERENCE_S / (0.5 * ((e0 - b0) + (e1 - b1)))

    def between(self, i: int, j: int) -> tuple[float, float]:
        """(host seconds, reference seconds) from the end of sample i to the start of sample j."""
        host = ref = 0.0
        for k in range(i, j):
            gap = self.samples[k + 1][0] - self.samples[k][1]
            host += gap
            ref += gap * self.scale(k)
        return host, ref
