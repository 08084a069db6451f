"""Resilience policies: transient-error taxonomy, retry/backoff, circuit breaker.

The service treats a backend exception in one of three ways, decided here:

* **Non-transient** (``ValueError``/``TypeError``/... — a malformed request
  or a programming error): propagate raw, immediately.  Retrying cannot
  help, degrading would hide a bug, and the breaker must not trip — a bad
  request says nothing about backend health.
* **Transient** (everything else — flaky worker, injected fault, I/O
  hiccup): retry with exponential backoff up to ``retries`` times, feeding
  the circuit breaker, then hand the batch to the degradation ladder.
* **Breaker open**: skip the backend entirely and degrade up front, so a
  struggling backend gets breathing room instead of a retry storm.

The :class:`CircuitBreaker` is the classic three-state machine — *closed*
(normal), *open* (error rate over ``error_threshold`` across the last
``window`` calls; everything degrades for ``open_s``), *half-open* (up to
``half_open_probes`` trial requests; all must succeed to close, one failure
re-opens).  Its state is published as the ``gateway_breaker_state`` gauge
(0 = closed, 1 = open, 2 = half-open) with transitions counted by target
state, so a dashboard can see every trip and recovery.

All timing is injectable (clock + sleep) so breaker and backoff behavior is
unit-testable without wall-clock waits.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from ..obs.metrics import MetricsRegistry

#: breaker states, and their gauge encoding
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"
BREAKER_STATES = (CLOSED, OPEN, HALF_OPEN)
_STATE_CODE = {CLOSED: 0.0, OPEN: 1.0, HALF_OPEN: 2.0}

#: degradation-ladder stages (pre-seeded on the fallbacks counter)
FALLBACK_STAGES = (
    "ann_exact",        # ANN search failed -> exact search (bit-identical)
    "breaker_cache",    # breaker open -> stale LRU-cached result
    "breaker_profile",  # breaker open -> price-profile fallback ranking
    "error_cache",      # retries exhausted -> stale LRU-cached result
    "error_profile",    # retries exhausted -> price-profile fallback ranking
)

#: exception types retrying can never fix (caller/programming errors)
NON_TRANSIENT_ERRORS = (
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AssertionError,
    NotImplementedError,
)


def is_transient(error: BaseException) -> bool:
    """True if ``error`` is worth retrying / degrading around."""
    return not isinstance(error, NON_TRANSIENT_ERRORS)


@dataclass
class ResilienceConfig:
    """Knobs for retries, backoff, the breaker, and degradation.

    Defaults are tuned for a microsecond-scale in-process backend: short
    backoff (milliseconds), a small error window, and a sub-second open
    period.  ``degrade=False`` turns the ladder off — exhausted retries
    then fail with :class:`~repro.serving.errors.BackendError` instead of
    serving a fallback answer.
    """

    retries: int = 2
    backoff_s: float = 0.005
    backoff_multiplier: float = 2.0
    breaker_window: int = 32
    breaker_error_threshold: float = 0.5
    breaker_min_samples: int = 8
    breaker_open_s: float = 0.25
    breaker_half_open_probes: int = 2
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.breaker_window < 1:
            raise ValueError(f"breaker_window must be >= 1, got {self.breaker_window}")
        if not 0.0 < self.breaker_error_threshold <= 1.0:
            raise ValueError(
                "breaker_error_threshold must be in (0, 1], got "
                f"{self.breaker_error_threshold}"
            )
        if self.breaker_min_samples < 1:
            raise ValueError(
                f"breaker_min_samples must be >= 1, got {self.breaker_min_samples}"
            )
        if self.breaker_open_s < 0:
            raise ValueError(f"breaker_open_s must be >= 0, got {self.breaker_open_s}")
        if self.breaker_half_open_probes < 1:
            raise ValueError(
                "breaker_half_open_probes must be >= 1, got "
                f"{self.breaker_half_open_probes}"
            )


class CircuitBreaker:
    """Closed → open (error-rate window) → half-open (probes) → closed.

    Thread-safe; every decision happens under one lock.  ``on_transition``
    (if given) is called with the new state name whenever the state
    changes — while the lock is held, so keep it cheap (the policy uses it
    to set a gauge).
    """

    def __init__(
        self,
        window: int = 32,
        error_threshold: float = 0.5,
        min_samples: int = 8,
        open_s: float = 0.25,
        half_open_probes: int = 2,
        clock: Optional[Callable[[], float]] = None,
        on_transition: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.window = int(window)
        self.error_threshold = float(error_threshold)
        self.min_samples = int(min_samples)
        self.open_s = float(open_s)
        self.half_open_probes = int(half_open_probes)
        self._clock = clock or time.perf_counter
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=self.window)  # 1 = failure
        self._state = CLOSED
        self._opened_at = 0.0
        self._probes_issued = 0
        self._probe_successes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _set_state(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        if state == HALF_OPEN:
            self._probes_issued = 0
            self._probe_successes = 0
        elif state == OPEN:
            self._opened_at = self._clock()
        elif state == CLOSED:
            self._events.clear()
        if self._on_transition is not None:
            self._on_transition(state)

    def allow(self) -> bool:
        """May the next backend call proceed?  (Counts half-open probes.)"""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.open_s:
                    return False
                self._set_state(HALF_OPEN)
            if self._probes_issued < self.half_open_probes:
                self._probes_issued += 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._events.append(0)
            if self._state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_probes:
                    self._set_state(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._events.append(1)
            if self._state == HALF_OPEN:
                self._set_state(OPEN)
            elif self._state == CLOSED:
                if len(self._events) < self.min_samples:
                    return
                rate = sum(self._events) / len(self._events)
                if rate >= self.error_threshold:
                    self._set_state(OPEN)

    def error_rate(self) -> float:
        with self._lock:
            if not self._events:
                return 0.0
            return sum(self._events) / len(self._events)


class ResiliencePolicy:
    """A configured breaker + backoff schedule, wired to obs metrics.

    Owned by one :class:`~repro.serving.service.RecommenderService`; the
    service consults :meth:`allow` before each batch group, feeds
    :meth:`record_success` / :meth:`record_failure` after, and sleeps
    :meth:`sleep_backoff` between retry attempts.  The breaker state gauge
    and transition counter live in the service's registry so ``/metrics``
    scrapes see them next to the fallback counters.
    """

    def __init__(
        self,
        config: Optional[ResilienceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.config = config or ResilienceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._sleep = sleep or time.sleep
        self._state_gauge = self.registry.gauge(
            "gateway_breaker_state",
            "Circuit breaker state: 0 closed, 1 open, 2 half-open.",
        )
        self._transitions = self.registry.counter(
            "gateway_breaker_transitions_total",
            "Breaker state transitions, by target state.",
            labels=("to",),
        )
        for state in BREAKER_STATES:
            self._transitions.labels_key((state,), 0)
        self.breaker = CircuitBreaker(
            window=self.config.breaker_window,
            error_threshold=self.config.breaker_error_threshold,
            min_samples=self.config.breaker_min_samples,
            open_s=self.config.breaker_open_s,
            half_open_probes=self.config.breaker_half_open_probes,
            clock=clock,
            on_transition=self._note_transition,
        )
        self._state_gauge.set(_STATE_CODE[CLOSED])

    def _note_transition(self, state: str) -> None:
        self._state_gauge.set(_STATE_CODE[state])
        self._transitions.labels_key((state,), 1)

    # -- breaker delegation --------------------------------------------
    @property
    def state(self) -> str:
        return self.breaker.state

    def allow(self) -> bool:
        return self.breaker.allow()

    def record_success(self) -> None:
        self.breaker.record_success()

    def record_failure(self) -> None:
        self.breaker.record_failure()

    # -- backoff -------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based): exponential."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return self.config.backoff_s * self.config.backoff_multiplier ** (attempt - 1)

    def sleep_backoff(self, attempt: int) -> float:
        delay = self.backoff_delay(attempt)
        if delay > 0:
            self._sleep(delay)
        return delay
