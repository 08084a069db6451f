"""Resilience policies: breaker, retries, deadlines, degradation ladder.

Unit-level breaker mechanics run against an injectable clock; the
integration tests drive a real service through seeded fault plans and pin
the exactly-once outcome accounting the chaos gate audits.
"""

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.faults import SCORER_DELAY, SCORER_ERROR, FaultPlan, FaultSpec
from repro.serving import (
    BackendError,
    DeadlineExceeded,
    DegradedResponse,
    RecommenderService,
    ResilienceConfig,
    export_index,
    is_transient,
)
from repro.serving.resilience import (
    BACKOFF_MULTIPLIER,
    BREAKER_ERROR_THRESHOLD,
    BREAKER_HALF_OPEN_PROBES,
    BREAKER_MIN_SAMPLES,
    BREAKER_OPEN_S,
    BREAKER_WINDOW,
    CLOSED,
    HALF_OPEN,
    OPEN,
    ResiliencePolicy,
)


@pytest.fixture(scope="module")
def index():
    config = SyntheticConfig(
        n_users=40, n_items=60, n_categories=4, n_price_levels=4,
        interactions_per_user=7, seed=13,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=10, category_dim=4, rng=np.random.default_rng(5))
    model.eval()
    return export_index(model, dataset)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTransience:
    def test_programming_errors_are_permanent(self):
        for error in (ValueError("x"), TypeError("x"), KeyError("x"),
                      IndexError("x"), AssertionError("x"), NotImplementedError("x")):
            assert not is_transient(error)

    def test_runtime_failures_are_transient(self):
        for error in (RuntimeError("x"), OSError("x"), TimeoutError("x"),
                      MemoryError("x")):
            assert is_transient(error)


class TestCircuitBreaker:
    """The breaker's state machine at the module constants, on a fake clock."""

    def trip(self, breaker):
        for _ in range(BREAKER_MIN_SAMPLES):
            breaker.record_failure()
        assert breaker.state == OPEN

    def test_stays_closed_below_threshold(self):
        breaker = ResiliencePolicy(clock=FakeClock())
        for _ in range(BREAKER_WINDOW):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()

    def test_opens_on_error_rate_with_min_samples(self):
        breaker = ResiliencePolicy(clock=FakeClock())
        for _ in range(BREAKER_MIN_SAMPLES - 1):
            breaker.record_failure()
        assert breaker.state == CLOSED, "below min_samples must not trip"
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_threshold_is_a_share_of_the_window(self):
        """Failures at exactly ``BREAKER_ERROR_THRESHOLD`` of the events seen
        trip it; one success fewer in the window keeps it closed until then."""
        breaker = ResiliencePolicy(clock=FakeClock())
        failures = int(BREAKER_WINDOW * BREAKER_ERROR_THRESHOLD)
        for _ in range(BREAKER_WINDOW - failures):
            breaker.record_success()
        for _ in range(failures - 1):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_window_forgets_old_successes(self):
        """Only the last ``BREAKER_WINDOW`` calls count: a long healthy past
        does not dilute a burst of failures."""
        breaker = ResiliencePolicy(clock=FakeClock())
        for _ in range(3 * BREAKER_WINDOW):
            breaker.record_success()
        failures = int(BREAKER_WINDOW * BREAKER_ERROR_THRESHOLD)
        for _ in range(failures - 1):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_half_open_after_open_period_then_closes(self):
        clock = FakeClock()
        breaker = ResiliencePolicy(clock=clock)
        self.trip(breaker)
        clock.now = BREAKER_OPEN_S * 0.5
        assert not breaker.allow(), "still inside the open period"
        clock.now = BREAKER_OPEN_S * 1.5
        for probe in range(BREAKER_HALF_OPEN_PROBES):
            assert breaker.allow(), f"probe {probe} admitted"
            assert breaker.state == HALF_OPEN, "needs all probes before closing"
            breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_admits_only_the_probes(self):
        clock = FakeClock()
        breaker = ResiliencePolicy(clock=clock)
        self.trip(breaker)
        clock.now = BREAKER_OPEN_S * 1.5
        assert [breaker.allow() for _ in range(BREAKER_HALF_OPEN_PROBES + 1)] == (
            [True] * BREAKER_HALF_OPEN_PROBES + [False]
        )

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = ResiliencePolicy(clock=clock)
        self.trip(breaker)
        clock.now = BREAKER_OPEN_S * 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.now += BREAKER_OPEN_S * 0.5
        assert not breaker.allow(), "open period restarts on re-open"

    def test_metrics_see_every_state_change(self):
        clock = FakeClock()
        breaker = ResiliencePolicy(clock=clock)
        gauge = breaker.registry.gauge(
            "gateway_breaker_state",
            "Circuit breaker state: 0 closed, 1 open, 2 half-open.",
        )
        transitions = breaker.registry.counter(
            "gateway_breaker_transitions_total",
            "Breaker state transitions, by target state.",
            labels=("to",),
        )
        seen = []
        self.trip(breaker)
        seen.append(gauge.value())
        clock.now = BREAKER_OPEN_S * 1.5
        breaker.allow()
        seen.append(gauge.value())
        for _ in range(BREAKER_HALF_OPEN_PROBES):
            breaker.allow()
            breaker.record_success()
        seen.append(gauge.value())
        assert seen == [1.0, 2.0, 0.0]
        assert [transitions.value(to=state) for state in (CLOSED, OPEN, HALF_OPEN)] == [
            1.0, 1.0, 1.0
        ]

    def test_backoff_is_exponential_in_the_multiplier(self):
        slept = []
        policy = ResiliencePolicy(ResilienceConfig(backoff_s=0.01), sleep=slept.append)
        assert [policy.sleep_backoff(attempt) for attempt in (1, 2, 3)] == slept
        assert slept == [0.01, 0.01 * BACKOFF_MULTIPLIER, 0.01 * BACKOFF_MULTIPLIER**2]
        with pytest.raises(ValueError, match="attempt"):
            policy.backoff_delay(0)


class TestRetries:
    def test_transient_error_is_retried_to_success(self, index):
        plan = FaultPlan([FaultSpec(SCORER_ERROR, times=(0,))])
        service = RecommenderService(
            index, resilience=ResilienceConfig(backoff_s=0.0), fault_plan=plan
        )
        answer = service.recommend(3)
        assert not isinstance(answer, DegradedResponse)
        assert service.stats.retries == 1
        assert service.stats.outcome_count("ok") == 1

    def test_non_transient_error_propagates_raw(self, index, monkeypatch):
        service = RecommenderService(index, resilience=ResilienceConfig())

        def poisoned(*args, **kwargs):
            raise ValueError("bad topk arguments")

        monkeypatch.setattr(service.engine, "topk_rows", poisoned)
        with pytest.raises(ValueError, match="bad topk arguments"):
            service.recommend(3)
        assert service.stats.retries == 0
        assert service.stats.outcome_count("failed") == 1

    def test_exhausted_retries_without_degrade_raise_backend_error(self, index):
        plan = FaultPlan([FaultSpec(SCORER_ERROR, probability=1.0)])
        service = RecommenderService(
            index,
            resilience=ResilienceConfig(retries=1, backoff_s=0.0, degrade=False),
            fault_plan=plan,
        )
        with pytest.raises(BackendError, match="after 2 attempt"):
            service.recommend(3)
        assert service.stats.outcome_count("failed") == 1

    def test_no_policy_means_raw_failure(self, index):
        plan = FaultPlan([FaultSpec(SCORER_ERROR, times=(0,))])
        service = RecommenderService(index, fault_plan=plan)
        with pytest.raises(RuntimeError, match="injected fault"):
            service.recommend(3)
        assert service.stats.retries == 0


class TestDegradationLadder:
    def test_exhausted_retries_degrade_to_profile(self, index):
        plan = FaultPlan([FaultSpec(SCORER_ERROR, probability=1.0)])
        service = RecommenderService(
            index,
            resilience=ResilienceConfig(retries=1, backoff_s=0.0),
            fault_plan=plan,
        )
        answer = service.recommend(3, k=5)
        assert isinstance(answer, DegradedResponse)
        assert answer.stage == "error_profile"
        assert len(answer.items) == 5
        assert service.stats.fallback_count("error_profile") == 1
        assert service.stats.outcome_count("degraded") == 1

    def test_degraded_answers_are_never_cached(self, index):
        plan = FaultPlan([FaultSpec(SCORER_ERROR, times=(0, 1))])
        service = RecommenderService(
            index,
            resilience=ResilienceConfig(retries=1, backoff_s=0.0),
            fault_plan=plan,
        )
        degraded = service.recommend(3)
        assert isinstance(degraded, DegradedResponse)
        healthy = service.recommend(3)  # plan exhausted: real answer
        assert not isinstance(healthy, DegradedResponse)
        assert not healthy.cached, "degraded result must not have been cached"

    def test_open_breaker_short_circuits_to_degraded(self, index):
        # a clock that never moves: the open period never elapses
        plan = FaultPlan([FaultSpec(SCORER_ERROR, probability=1.0)])
        config = ResilienceConfig(retries=0, backoff_s=0.0)
        service = RecommenderService(
            index, resilience=config, fault_plan=plan, cache_capacity=0,
            clock=FakeClock(),
        )
        for user in range(BREAKER_MIN_SAMPLES + 1):
            assert isinstance(service.recommend(user), DegradedResponse)
        assert service.resilience.state == "open"
        assert service.stats.fallback_count("breaker_profile") >= 1
        # Once open, the scorer is no longer consulted at all.
        consulted_before = plan.occurrences(SCORER_ERROR)
        service.recommend(20)
        assert plan.occurrences(SCORER_ERROR) == consulted_before

    def test_degraded_latency_is_end_to_end_and_books_only_the_answered(self, index):
        """A degraded answer waited in the queue like any other: its queue
        wait is booked (not zero), one latency sample per answered request."""
        clock = FakeClock()
        plan = FaultPlan([FaultSpec(SCORER_ERROR, probability=1.0)])
        config = ResilienceConfig(retries=0, backoff_s=0.0)
        service = RecommenderService(
            index, resilience=config, fault_plan=plan, cache_capacity=0,
            clock=clock, max_batch_size=100,
        )
        for user in range(BREAKER_MIN_SAMPLES):
            service.recommend(user)
        assert service.resilience.state == "open"
        wait = service.registry.histogram(
            "serving_queue_wait_seconds", "Time a request spent queued before its flush."
        )
        latency = service.registry.histogram(
            "serving_request_latency_seconds",
            "End-to-end request latency (queue wait + batch compute).",
        )
        wait_before, latency_before = wait.sum(), latency.sum()
        samples_before = latency.count()
        pendings = [service.submit(user) for user in (10, 11, 12)]
        clock.now += 0.05
        assert service.flush() == 3
        answers = [pending.result(timeout=1.0) for pending in pendings]
        assert all(a.stage == "breaker_profile" for a in answers)
        assert wait.sum() - wait_before >= 3 * 0.05 - 1e-9
        assert latency.sum() - latency_before >= 3 * 0.05 - 1e-9
        assert latency.count() - samples_before == len(answers)

    def test_breaker_state_gauge_tracks_transitions(self, index):
        plan = FaultPlan([FaultSpec(SCORER_ERROR, probability=1.0)])
        config = ResilienceConfig(retries=0, backoff_s=0.0)
        service = RecommenderService(
            index, resilience=config, fault_plan=plan, cache_capacity=0,
            clock=FakeClock(),
        )
        gauge = service.registry.gauge(
            "gateway_breaker_state",
            "Circuit breaker state: 0 closed, 1 open, 2 half-open.",
        )
        assert gauge.value() == 0.0
        for user in range(BREAKER_MIN_SAMPLES):
            service.recommend(user)
        assert gauge.value() == 1.0  # 1 == open


class TestDeadlines:
    def test_expired_request_fails_typed_before_scoring(self, index):
        clock = FakeClock()
        service = RecommenderService(index, clock=clock)
        pending = service.submit(5, deadline_s=0.5)
        clock.now = 1.0
        service.flush()
        with pytest.raises(DeadlineExceeded, match="user 5"):
            pending.result(timeout=1.0)
        assert service.stats.deadline_exceeded == 1
        assert service.stats.outcome_count("failed") == 1

    def test_live_requests_in_same_batch_still_answer(self, index):
        clock = FakeClock()
        service = RecommenderService(index, clock=clock)
        doomed = service.submit(5, deadline_s=0.5)
        fine = service.submit(6)
        clock.now = 1.0
        service.flush()
        with pytest.raises(DeadlineExceeded):
            doomed.result(timeout=1.0)
        assert len(fine.result(timeout=1.0).items) > 0

    def test_deadline_validation(self, index):
        service = RecommenderService(index)
        with pytest.raises(ValueError, match="deadline_s"):
            service.submit(5, deadline_s=0.0)


class TestOutcomeAccounting:
    def test_every_request_resolves_exactly_once(self, index):
        plan = FaultPlan(
            [
                FaultSpec(SCORER_ERROR, times=(1, 2, 8)),
                FaultSpec(SCORER_DELAY, times=(4,), delay_s=0.001),
            ]
        )
        service = RecommenderService(
            index,
            resilience=ResilienceConfig(retries=1, backoff_s=0.0),
            fault_plan=plan,
            cache_capacity=0,
        )
        n = 30
        for user in range(n):
            service.recommend(user)
        stats = service.stats
        total = sum(stats.outcome_count(o) for o in ("ok", "degraded", "failed"))
        assert total == n
        assert stats.outcome_count("degraded") >= 1
