"""The calibration kernel: one look at how fast the machine is right now.

A fixed piece of work — a 100k-element gather-sum over an 8 MB table, a
10k-iteration Python loop and 300 small-object operations (dict lookup, LRU
touch, two short array copies): memory, interpreter and allocator, the mix
the workloads are made of — is run ``REPEATS`` times per reading, about
25 ms in all.  The **mean** pass is the reading the guard in :mod:`slices`
compares: it is what grows when the process has to share its cores.  (The
issue reads the best of 5 passes.  On the reference box a pass fits inside
a scheduler time slice, so under two busy-looping processes the best of 24
did not move at all while the slice between the readings ran at half
speed.)  The fastest pass is kept as a diagnostic.

The issue's kernel also had three 256^2 float32 matmuls.  They are left
out: on the idle reference box their best of 5 wanders between 0.73 and
1.12 ms from quartile to quartile, which tells the guard nothing the rest
of the kernel does not.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Reading:
    kernel_ms: float  # mean pass: what the guard compares
    fastest_ms: float  # diagnostic only


class Calibrator:
    """The calibration kernel over fixed operands (seeded once, reused)."""

    REPEATS = 24

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._table = rng.random(1_000_000)
        self._gather = rng.integers(0, len(self._table), size=100_000)
        self._cache = OrderedDict(
            (key, (np.arange(10), np.arange(10.0))) for key in range(800)
        )
        self._keys = rng.integers(0, len(self._cache), size=300).tolist()
        for _ in range(3):  # first touches
            self.kernel()

    def kernel(self) -> float:
        """One pass of the kernel; returns its wall seconds."""
        start = time.perf_counter()
        self._table[self._gather].sum()
        total = 0
        for value in range(10_000):
            total += value
        cache = self._cache
        for key in self._keys:
            items, scores = cache[key]
            cache.move_to_end(key)
            items.copy()
            scores.copy()
        return time.perf_counter() - start

    def read(self) -> Reading:
        passes = [self.kernel() for _ in range(self.REPEATS)]
        return Reading(
            kernel_ms=sum(passes) / len(passes) * 1e3, fastest_ms=min(passes) * 1e3
        )
