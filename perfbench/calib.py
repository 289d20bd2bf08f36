"""Calibration kernel: a fixed piece of work, independent of hemirings,
whose time tracks how fast the machine runs this kind of code right now.

On a shared host the same computation can take 1.5x longer from one
minute to the next.  The benchmark times this kernel between operations
and divides each measured time by the machine's current speed factor,
``calibration time / NOMINAL_S``, so that slow periods of the host do not
read as changes in the program.  The kernel mixes what the package does:
numpy fancy indexing on small integer tables, and Python loops over ints.
"""

import time

import numpy as np

NOMINAL_S = 0.010     # kernel time on the reference machine (see README)
GAP_S = 0.2           # least operation time between two samples

_TABLE = (np.arange(96 * 96, dtype=np.int64).reshape(96, 96) * 7919 % 96).astype(np.int32)


def kernel() -> int:
    labels = np.arange(96, dtype=np.int32) // 2
    acc = 0
    for i in range(120):
        a = labels[_TABLE]
        b = labels[_TABLE[labels]]
        acc += int((a != b).sum())
        seen = {}
        for x in range(40):
            seen[(x * i) % 13] = x
        acc += len(seen)
    return acc


def sample() -> float:
    """Kernel time in seconds: the faster of two runs, which drops a single
    interruption."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def factor(samples: list, k: int) -> float:
    """Speed factor of an operation run between samples k and k + 1."""
    return (samples[k] + samples[k + 1]) / (2 * NOMINAL_S)


class Samples:
    """Calibration samples interleaved with operations: one before the
    first, then one after any operation that ends at least GAP_S after the
    last sample, and one at the end."""

    def __init__(self):
        self.values = [sample()]
        self._last = time.perf_counter()

    def index(self) -> int:
        """Index of the sample before the next operation."""
        return len(self.values) - 1

    def after_op(self) -> None:
        if time.perf_counter() - self._last >= GAP_S:
            self.close()

    def close(self) -> None:
        self.values.append(sample())
        self._last = time.perf_counter()
