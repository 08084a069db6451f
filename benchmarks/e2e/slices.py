"""Guarded slices: the measuring protocol every workload shares.

A run's measured phase is ``n_planned`` equal slices of fixed work.  The
calibration kernel (:mod:`calibrate`) is read before and after each slice,
and a slice is *clean* when both readings are within ``KERNEL_RATIO`` of the
lowest reading of the phase.  While fewer than ``n_planned`` slices are
clean, up to ``max_spare`` spare slices are appended.  Every timing metric
is the median over the clean slices of the per-slice value, as measured.
A run with fewer than two thirds of its planned slices clean still reports,
flagged ``noisy``; with no clean slice at all the median is over every
slice.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .calibrate import Reading

#: a reading above this multiple of the phase's lowest marks a slice disturbed
KERNEL_RATIO = 3.0


@dataclass
class Slice:
    index: int
    planned: bool
    kernel_before_ms: float
    kernel_after_ms: float
    #: mean kernel pass around the slice over the fastest one: diagnostic only
    slowdown: float
    values: Dict[str, float] = field(default_factory=dict)
    clean: bool = True


def classify(slices: List[Slice]) -> float:
    """Set every slice's ``clean`` flag; returns the lowest kernel reading."""
    if not slices:
        return 0.0
    lowest = min(min(s.kernel_before_ms, s.kernel_after_ms) for s in slices)
    limit = KERNEL_RATIO * lowest
    for s in slices:
        s.clean = s.kernel_before_ms <= limit and s.kernel_after_ms <= limit
    return lowest


def run_guarded(
    n_planned: int,
    run_one: Callable[[int], Dict[str, float]],
    read: Callable[[], Reading],
    max_spare: int = 0,
    after_planned: Optional[Callable[[], None]] = None,
) -> List[Slice]:
    """Run ``n_planned`` slices plus spares; ``run_one(i)`` returns slice values.

    ``after_planned`` runs once, right after the last planned slice — where
    quality is read, so spare slices contribute timing only.
    """
    slices: List[Slice] = []
    before = read()
    index = 0
    while True:
        if index >= n_planned:
            classify(slices)
            clean = sum(s.clean for s in slices)
            if clean >= n_planned or index >= n_planned + max_spare:
                break
        values = run_one(index)
        after = read()
        slices.append(
            Slice(
                index=index,
                planned=index < n_planned,
                kernel_before_ms=before.kernel_ms,
                kernel_after_ms=after.kernel_ms,
                slowdown=(before.kernel_ms + after.kernel_ms)
                / (before.fastest_ms + after.fastest_ms),
                values=values,
            )
        )
        before = after
        index += 1
        if index == n_planned and after_planned is not None:
            after_planned()
            before = read()
    classify(slices)
    return slices


def reduce(slices: List[Slice], n_planned: int) -> Dict:
    """Median of every value over the clean slices, and the run's bookkeeping."""
    lowest = classify(slices)
    clean = [s for s in slices if s.clean]
    used = clean or slices
    names = sorted({name for s in used for name in s.values})
    return {
        "medians": {
            name: statistics.median(s.values[name] for s in used if name in s.values)
            for name in names
        },
        "samples": len(used),
        "slices_clean": len(clean),
        "slices_disturbed": len(slices) - len(clean),
        "noisy": len(clean) < math.ceil(2 * n_planned / 3),
        "calibration_ms": lowest,
        "slowdown": statistics.median(s.slowdown for s in used),
    }
