"""Reference kernel that measures how fast the machine runs right now.

The benchmark is defined on a shared host whose speed drifts by up to 1.4x
over minutes while other tenants' load comes and goes; process CPU time
drifts with wall time, so the host runs slower rather than descheduling
the benchmark. One run cannot average out a drift that lasts longer than itself, so
the timed passes run this kernel before every call and after the last one,
and each call's wall time is scaled by ``REFERENCE_S`` over the mean kernel
time on either side of it. The scaled times read as seconds on a machine
where the kernel takes ``REFERENCE_S``.

The kernel imports nothing from convexgauss, so a change to the program
moves the scaled times exactly as it moves the wall times. It mixes the
work the program does: an interpreter loop, numpy calls on ~100-row arrays
(as in the per-point line searches) and numpy passes over 200,000-row
arrays (as in the Monte Carlo chunks and quadrature grids).
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel seconds that scaled times are quoted at: about the kernel's lower
# quartile on the machine the benchmark was defined on (see baseline.json),
# where its time ranged from 0.038 to 0.086 s within twenty seconds.
REFERENCE_S = 0.045


class Kernel:
    """A fixed amount of reference work; calling it returns its wall time."""

    def __init__(self):
        rng = np.random.default_rng(20180820)
        self._points = rng.standard_normal((120, 3))
        self._normals = rng.standard_normal((8, 3))
        self._rows = rng.standard_normal((200_000, 3))

    def _interpreter(self):
        total, slots = 0.0, {}
        for i in range(100_000):
            total += math.sqrt(i) * 0.5
            slots[i & 63] = total
        return total

    def _small_arrays(self):
        for _ in range(600):
            inside = np.max(self._points @ self._normals.T - 1.0, axis=1) <= 0.0
            np.linalg.norm(self._points[inside], axis=1).sum()

    def _large_arrays(self):
        for _ in range(3):
            np.exp(-0.5 * np.einsum("ij,ij->i", self._rows, self._rows)).sum()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._interpreter()
        self._small_arrays()
        self._large_arrays()
        return time.perf_counter() - t0
