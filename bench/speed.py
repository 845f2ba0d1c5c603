"""A fixed reference kernel that tracks the machine's current speed.

On a shared machine the cores change speed by 30-40% for seconds to
minutes at a time, and a slow spell often outlasts a whole run.  CPU time
does not help: it moves with wall time.  So every op of the untraced run is
timed next to this kernel, which runs no instab code, and its time is
rescaled to what it would be when the kernel takes ``REFERENCE_S``:

    op time at reference speed = wall time * REFERENCE_S / kernel time

The kernel mixes the three kinds of work instab does: an interpreted float
recurrence (a continued fraction), many small numpy operations (like the
RK4 steps and coefficient streams) and a dense LAPACK eigensolve.  On a
2-core x86-64 machine, the throughput of 30 s windows of one ``certify``
process spread by 0.21 of its median in wall time and by 0.02 rescaled.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time on the machine the first numbers were taken on,
# so that reference-speed times read about like wall times there.
REFERENCE_S = 3.0e-3


class Kernel:
    """Calling it runs the fixed kernel once and returns its wall time in s."""

    def __init__(self):
        rng = np.random.default_rng(20201104)
        self._dense = rng.standard_normal((48, 48))
        self._step = 0.01 * rng.standard_normal((16, 16))
        self._v = rng.standard_normal(16)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        x = 0.5
        for _ in range(8000):
            x = 1.0 / (1.0 + 0.5 * x)
        y = self._v
        for _ in range(300):
            y = self._step @ y + self._v
        np.linalg.eigvals(self._dense)
        return time.perf_counter() - t0


def at_reference(wall_s: float, kernel_s: float) -> float:
    """A wall time rescaled to the reference speed."""
    return wall_s * REFERENCE_S / kernel_s
