"""Operation times at a reference host speed.

Benchmark hosts are often shared. On a 2-vCPU Xeon VM at 2.0 GHz, a fixed
pure-Python loop took anywhere from 3.6 to 6.9 ms within one minute, with no
CPU steal reported, and raw medians of two runs of the same code differed by
up to 30%. So a fixed probe made of benchmark-owned code (big-integer
Fibonomials, an mpmath series, small complex matmuls, a dict-and-int loop)
runs between operations, at least every PROBE_EVERY_S, and each operation's
time is scaled by PROBE_NOMINAL_NS over the mean of the probes just before
and after it. The library never runs in the probe, so a change to goldencalc
moves the scaled times as it moves the raw ones; the raw times are printed
as well.
"""

from __future__ import annotations

import time

import numpy as np

import reference as ref

PROBE_NOMINAL_NS = 1_000_000
PROBE_EVERY_S = 0.02
_MATRIX = (np.arange(1600).reshape(40, 40) % 7 + 1j).astype(np.complex128)
_EXP = ref.exp_coefficient("small_e")


def probe_ns() -> int:
    """Wall time of the fixed probe work, about 1 ms on a 2 GHz Xeon."""
    t0 = time.perf_counter_ns()
    ref.fibonomial_row(90)
    ref.series_sum(_EXP, 1.25, 34)
    for _ in range(5):
        _MATRIX @ _MATRIX
    acc, table = 0, {}
    for k in range(2000):
        acc = (acc * 31 + k) & 0xFFFFFFFF
        table[k & 63] = acc
    return time.perf_counter_ns() - t0


class Probes:
    """Probe readings keyed by how many samples had been taken before each."""

    def __init__(self) -> None:
        self.readings: list[tuple[int, int]] = [(0, probe_ns())]
        self._last = time.perf_counter()

    def maybe(self, samples_taken: int) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.take(samples_taken)

    def take(self, samples_taken: int) -> None:
        if self.readings[-1][0] != samples_taken:
            self.readings.append((samples_taken, probe_ns()))
        self._last = time.perf_counter()

    def factor(self) -> float:
        """Whole-run scale: nominal over the median probe reading."""
        values = sorted(ns for _, ns in self.readings)
        return PROBE_NOMINAL_NS / values[len(values) // 2]

    def scale(self, samples_ns: list[int]) -> list[float]:
        """Each sample times nominal over the mean of its neighbouring probes."""
        readings = self.readings
        out = []
        j = 0
        for i, ns in enumerate(samples_ns):
            while readings[j + 1][0] <= i:
                j += 1
            out.append(ns * 2 * PROBE_NOMINAL_NS / (readings[j][1] + readings[j + 1][1]))
        return out
