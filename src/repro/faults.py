"""Deterministic fault injection for chaos tests and the chaos loadgen.

The resilience layer (flusher supervision, circuit breaker, degradation
ladder, lifecycle crash recovery) is only trustworthy if its failure paths
can be exercised *on demand*, repeatably.  This module provides that trigger: a
seeded :class:`FaultPlan` holding one :class:`FaultSpec` per named injection
point.  Components that support injection (``RecommenderService``,
``RetrievalEngine``, ``ServingGateway``, ``LifecycleController``) accept an
optional plan and consult it at their injection point; production code paths
pass ``None`` and pay a single ``is None`` check.

Determinism contract
--------------------
Each injection point keeps an *occurrence counter*: every consultation
increments it, and a spec fires either when the occurrence index is listed in
``times`` or when a per-point ``numpy`` Generator — seeded from
``(plan.seed, point)`` — draws below ``probability``.  Two runs with the
same plan, workload, and single-threaded consultation order therefore fire
identically; under concurrency the *set* of fired occurrences is still
deterministic for ``times``-based specs as long as the total consultation
count is.  The same plan object drives unit tests, ``repro loadtest
--chaos``, and the CI chaos-smoke job.

Injected failures raise :class:`InjectedFault` (a ``RuntimeError``), which
the resilience layer classifies as *transient* — exactly like a real flaky
backend — so retries, breaker trips, and degradation all engage.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Named injection points (the fault-point catalog; see docs/robustness.md)
# ---------------------------------------------------------------------------
SCORER_ERROR = "service.scorer_error"
"""The warm scoring path raises mid-batch (poisoned scorer call)."""

SCORER_DELAY = "service.scorer_delay"
"""The warm scoring path stalls for ``delay_s`` (slow/hung scorer)."""

ANN_SEARCH_ERROR = "ann.search_error"
"""The ANN index raises from ``search()`` (triggers exact-search fallback)."""

FLUSHER_CRASH = "gateway.flusher_crash"
"""The gateway's background flusher thread raises (supervision test)."""

LIFECYCLE_INGEST_CRASH = "lifecycle.ingest_crash"
"""The journal writer crashes mid-ingest (possibly leaving a torn record)."""

LIFECYCLE_BUILD_CRASH = "lifecycle.build_crash"
"""The index build crashes after writing archives, before the manifest."""

LIFECYCLE_PROMOTE_CRASH = "lifecycle.promote_crash"
"""Promotion crashes after the gates pass, before the CURRENT pointer flip."""

#: One source of truth for every named injection point and what failing
#: there means — ``repro loadtest --list-fault-points`` and the fault-point
#: table in docs/robustness.md both render from this registry.
FAULT_POINTS: Dict[str, str] = {
    SCORER_ERROR: "the warm scoring path raises mid-batch (poisoned scorer call)",
    SCORER_DELAY: "the warm scoring path stalls for delay_s (slow or hung scorer)",
    ANN_SEARCH_ERROR: "the ANN index raises from search() (exact-search fallback)",
    FLUSHER_CRASH: "the gateway's background flusher thread raises (supervision)",
    LIFECYCLE_INGEST_CRASH: "the journal writer crashes mid-ingest (torn final record)",
    LIFECYCLE_BUILD_CRASH: "the lifecycle build crashes between archives and manifest",
    LIFECYCLE_PROMOTE_CRASH: "promotion crashes after gates pass, before the CURRENT flip",
}

POINTS: Tuple[str, ...] = tuple(FAULT_POINTS)


def describe_fault_points() -> Dict[str, str]:
    """A copy of the fault-point registry (name -> one-line description)."""
    return dict(FAULT_POINTS)


class InjectedFault(RuntimeError):
    """Raised by a firing fault point; transient by classification."""

    def __init__(self, point: str, occurrence: int) -> None:
        super().__init__(f"injected fault at {point} (occurrence {occurrence})")
        self.point = point
        self.occurrence = occurrence


@dataclass(frozen=True)
class FaultSpec:
    """When one injection point fires.

    ``times`` lists 0-based occurrence indices that fire unconditionally;
    ``probability`` adds seeded random firing on every other occurrence.
    ``max_fires`` bounds total fires (``None`` = unbounded); ``delay_s`` is
    the stall length for delay-type points.  ``hard_kill`` turns a firing
    :meth:`FaultPlan.maybe_fail` into ``os._exit(137)`` — a SIGKILL-grade
    death with no unwind, no finally blocks, no flushes — which is what the
    lifecycle crash drills use to prove recovery from real process loss.
    """

    point: str
    times: Tuple[int, ...] = ()
    probability: float = 0.0
    max_fires: Optional[int] = None
    delay_s: float = 0.0
    hard_kill: bool = False

    def __post_init__(self) -> None:
        if not self.point:
            raise ValueError("point must be a non-empty injection-point name")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if any(t < 0 for t in self.times):
            raise ValueError(f"times must be >= 0, got {self.times}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError(f"max_fires must be >= 1, got {self.max_fires}")


class FaultPlan:
    """A seeded, thread-safe set of :class:`FaultSpec` entries.

    The plan is consulted via :meth:`should_fire` / :meth:`maybe_fail` /
    :meth:`maybe_delay`; unknown points never fire, so a component can
    consult unconditionally.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.seed = int(seed)
        self._specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.point in self._specs:
                raise ValueError(f"duplicate fault spec for point {spec.point!r}")
            self._specs[spec.point] = spec
        self._lock = threading.Lock()
        self._occurrences: Dict[str, int] = {p: 0 for p in self._specs}
        self._fires: Dict[str, int] = {p: 0 for p in self._specs}
        self._rngs: Dict[str, np.random.Generator] = {
            p: np.random.default_rng(np.random.SeedSequence([self.seed, i]))
            for i, p in enumerate(sorted(self._specs))
        }

    # ------------------------------------------------------------------
    def points(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def spec(self, point: str) -> Optional[FaultSpec]:
        return self._specs.get(point)

    def should_fire(self, point: str) -> bool:
        """Advance ``point``'s occurrence counter; return True if it fires."""
        spec = self._specs.get(point)
        if spec is None:
            return False
        with self._lock:
            occurrence = self._occurrences[point]
            self._occurrences[point] = occurrence + 1
            if spec.max_fires is not None and self._fires[point] >= spec.max_fires:
                return False
            fire = occurrence in spec.times
            if not fire and spec.probability > 0.0:
                fire = bool(self._rngs[point].random() < spec.probability)
            if fire:
                self._fires[point] += 1
            return fire

    def maybe_fail(self, point: str) -> None:
        """Raise :class:`InjectedFault` if ``point`` fires this occurrence.

        A spec with ``hard_kill=True`` does not raise: it terminates the
        process on the spot with ``os._exit(137)`` (the SIGKILL exit code),
        skipping every ``finally`` block and atexit hook — the honest model
        of a machine losing the process mid-operation.
        """
        if self.should_fire(point):
            spec = self._specs[point]
            if spec.hard_kill:
                os._exit(137)
            with self._lock:
                occurrence = self._occurrences[point] - 1
            raise InjectedFault(point, occurrence)

    def maybe_delay(self, point: str) -> float:
        """Sleep ``delay_s`` if ``point`` fires; return the slept seconds."""
        spec = self._specs.get(point)
        if spec is None or not self.should_fire(point):
            return 0.0
        if spec.delay_s > 0:
            time.sleep(spec.delay_s)
        return spec.delay_s

    # ------------------------------------------------------------------
    def occurrences(self, point: str) -> int:
        with self._lock:
            return self._occurrences.get(point, 0)

    def fires(self, point: str) -> int:
        with self._lock:
            return self._fires.get(point, 0)

    def total_fires(self) -> int:
        with self._lock:
            return sum(self._fires.values())

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-point ``{"occurrences": n, "fires": m}`` (stable key order)."""
        with self._lock:
            return {
                point: {
                    "occurrences": self._occurrences[point],
                    "fires": self._fires[point],
                }
                for point in sorted(self._specs)
            }


def chaos_plan(
    seed: int = 0,
    *,
    scorer_errors: int = 1,
    ann_failures: int = 1,
    flusher_crashes: int = 1,
    scorer_delays: int = 0,
    scorer_delay_s: float = 0.02,
    ingest_crashes: int = 0,
    build_crashes: int = 0,
    promote_crashes: int = 0,
    spacing: int = 7,
) -> FaultPlan:
    """The standard chaos mix: one of each headline failure, spread out.

    Occurrence indices are staggered (``spacing`` apart, distinct offsets
    per point) so a short load run hits every fault without two landing on
    the same batch.  Counts of 0 drop that point from the plan entirely.
    The lifecycle points default to 0 — they only fire inside a
    :class:`repro.lifecycle.LifecycleController`, not on the serving path,
    so plans driving pure load runs should not count them as pending.
    """

    def stagger(offset: int, count: int) -> Tuple[int, ...]:
        return tuple(offset + spacing * i for i in range(count))

    specs = []
    if scorer_errors:
        specs.append(FaultSpec(SCORER_ERROR, times=stagger(3, scorer_errors)))
    if ann_failures:
        specs.append(FaultSpec(ANN_SEARCH_ERROR, times=stagger(2, ann_failures)))
    if flusher_crashes:
        specs.append(FaultSpec(FLUSHER_CRASH, times=stagger(4, flusher_crashes)))
    if scorer_delays:
        specs.append(
            FaultSpec(
                SCORER_DELAY,
                times=stagger(5, scorer_delays),
                delay_s=scorer_delay_s,
            )
        )
    if ingest_crashes:
        specs.append(FaultSpec(LIFECYCLE_INGEST_CRASH, times=stagger(0, ingest_crashes)))
    if build_crashes:
        specs.append(FaultSpec(LIFECYCLE_BUILD_CRASH, times=stagger(0, build_crashes)))
    if promote_crashes:
        specs.append(
            FaultSpec(LIFECYCLE_PROMOTE_CRASH, times=stagger(0, promote_crashes))
        )
    return FaultPlan(specs, seed=seed)


# ---------------------------------------------------------------------------
# Archive corruption (filesystem fault — applied to artifacts, not code paths)
# ---------------------------------------------------------------------------
def corrupt_archive(path: str, array: Optional[str] = None, seed: int = 0) -> str:
    """Flip one payload byte of a stored array in an archive, in place.

    The metadata — including its recorded SHA-256 checksums — is left
    intact, so a subsequent checksum-verified load raises
    ``ArchiveCorrupted`` exactly as a real bit-flip or truncated write
    would.  Returns the name of the corrupted array.  ``array`` picks the
    victim explicitly; otherwise a seeded RNG chooses among the non-empty
    arrays.
    """
    if not os.path.isdir(path):
        raise ValueError(f"{path!r} is not an archive directory")
    names = sorted(
        f[: -len(".npy")]
        for f in os.listdir(path)
        if f.endswith(".npy") and os.path.getsize(os.path.join(path, f)) > 128
    )
    if not names:
        raise ValueError(f"no corruptible arrays in archive dir {path!r}")
    rng = np.random.default_rng(seed)
    target = array if array is not None else names[int(rng.integers(len(names)))]
    # Flip the final byte: .npy layout is header-then-raw-data, so the
    # last byte of a non-empty array's file is always payload.
    with open(os.path.join(path, target + ".npy"), "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        original = fh.read(1)[0]
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([original ^ 0xFF]))
    return target
