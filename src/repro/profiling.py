"""Lightweight training/serving/evaluation profiler: scoped timers + counters.

A :class:`Profiler` accumulates wall-time per named phase (``sampling``,
``forward``, ``backward``, ``step`` in the trainer; ``score``, ``topk``,
``merge``, ``metrics`` in the evaluator) plus arbitrary counters (triples
processed, batches, evaluated users), and renders a JSON-safe summary with
derived throughput.  It is cheap enough to leave on unconditionally —
overhead is two ``perf_counter`` calls plus one locked add per phase — and
a disabled instance degrades to no-ops so hot loops never need
``if profiler:`` guards.

Since the observability layer landed, the profiler is a *thin view over a*
:class:`~repro.obs.metrics.MetricsRegistry`: phase seconds, call counts,
and counters are stored as labelled registry counters
(``profiler_phase_seconds_total{phase=...}`` etc.), so anything a profiler
measures is automatically visible on a ``/metrics`` endpoint sharing that
registry, merges with the registry's snapshot/merge path, and is safe
under the batch runtime's chunk threads (every mutation happens
under the registry lock — the bare-dict read-modify-write race the old
implementation had is gone).  Pass ``registry=`` to aggregate several
profilers into one surface; the default is a private registry, preserving
the historical "each Profiler is isolated" behavior the tests pin.

Used by :class:`repro.train.trainer.Trainer` (surfaced on
:class:`~repro.train.trainer.TrainResult.profile` and the CLI), by
:func:`repro.eval.ranking.evaluate` (surfaced by ``repro evaluate`` and in
every artifact's ``metrics.json``), and by the benchmarks.  In parallel
evaluation the kernel phases are summed across workers, so they are CPU
seconds rather than wall time — shares still show where the work went.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from .obs.metrics import MetricsRegistry

#: registry metric names the profiler writes (one labelled family each)
PHASE_SECONDS_METRIC = "profiler_phase_seconds_total"
PHASE_CALLS_METRIC = "profiler_phase_calls_total"
COUNTER_METRIC = "profiler_events_total"


class Profiler:
    """Accumulates per-phase wall time and named counters (thread-safe)."""

    def __init__(self, enabled: bool = True, registry: Optional[MetricsRegistry] = None) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self._phase_seconds = self.registry.counter(
            PHASE_SECONDS_METRIC, "Wall seconds accumulated per profiler phase.",
            labels=("phase",),
        )
        self._phase_calls = self.registry.counter(
            PHASE_CALLS_METRIC, "Times each profiler phase was entered.",
            labels=("phase",),
        )
        self._events = self.registry.counter(
            COUNTER_METRIC, "Profiler counters (triples, batches, evaluated users...).",
            labels=("event",),
        )

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Scoped timer: ``with profiler.phase("forward"): ...``"""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._phase_seconds.labels_key((name,), elapsed)
            self._phase_calls.labels_key((name,), 1)

    def add_seconds(self, name: str, seconds: float, calls: int = 1) -> None:
        """Record externally-measured time under a phase."""
        if not self.enabled:
            return
        self._phase_seconds.labels_key((name,), float(seconds))
        self._phase_calls.labels_key((name,), calls)

    def seconds(self, name: str) -> float:
        """Total wall time accumulated under ``name`` (0.0 if never entered)."""
        return self._phase_seconds.value_for((name,))

    def _phases(self) -> Dict[str, float]:
        return {labels["phase"]: series.value for labels, series in self._phase_seconds.items()}

    def total_seconds(self) -> float:
        """Sum over all phases."""
        return sum(self._phases().values())

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment a named counter (e.g. ``triples``, ``batches``)."""
        if not self.enabled:
            return
        self._events.labels_key((name,), amount)

    def counter(self, name: str) -> float:
        return self._events.value_for((name,))

    def rate(self, counter: str, per: Optional[str] = None) -> float:
        """``counter / seconds`` — against one phase, or total time if ``per`` is None."""
        seconds = self.seconds(per) if per is not None else self.total_seconds()
        return self.counter(counter) / seconds if seconds > 0 else 0.0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict:
        """JSON-safe snapshot: per-phase seconds/calls/share, counters, rates."""
        seconds = self._phases()
        calls = {labels["phase"]: series.value for labels, series in self._phase_calls.items()}
        counters = {labels["event"]: series.value for labels, series in self._events.items()}
        total = sum(seconds.values())
        phases = {
            name: {
                "seconds": seconds[name],
                "calls": int(calls.get(name, 0)),
                "share": (seconds[name] / total) if total > 0 else 0.0,
            }
            for name in sorted(seconds)
        }
        summary: Dict = {
            "total_seconds": total,
            "phases": phases,
            "counters": counters,
        }
        if "triples" in counters and total > 0:
            summary["triples_per_sec"] = counters["triples"] / total
        # Parallel evaluation sums kernel phases across workers (CPU
        # seconds), so throughput is quoted over the wall-clock counter the
        # evaluator records, never over the phase sum.
        eval_wall = counters.get("eval_wall_seconds", 0.0)
        if "evaluated_users" in counters and eval_wall > 0:
            summary["users_per_sec"] = counters["evaluated_users"] / eval_wall
        return summary

    def format_phases(self) -> str:
        """Compact one-line phase breakdown, e.g. ``sample 12% fwd 41% ...``."""
        seconds = self._phases()
        total = sum(seconds.values())
        if total <= 0:
            return ""
        return " ".join(f"{name} {seconds[name] / total:.0%}" for name in sorted(seconds))

    def reset(self) -> None:
        self._phase_seconds.clear()
        self._phase_calls.clear()
        self._events.clear()
