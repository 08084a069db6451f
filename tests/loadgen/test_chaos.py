"""Chaos runs: outcome classification, accounting audit, determinism."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.faults import FLUSHER_CRASH, SCORER_ERROR, FaultPlan, FaultSpec, chaos_plan
from repro.loadgen import (
    WorkloadConfig,
    build_workload,
    run_chaos,
    run_closed_loop,
    verify_accounting,
)
from repro.serving import (
    GatewayConfig,
    RecommenderService,
    ResilienceConfig,
    ServingGateway,
    export_index,
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


@pytest.fixture(scope="module")
def workload(index):
    return build_workload(
        WorkloadConfig(n_requests=150, n_users=index.n_users), seed=11
    )


def make_gateway(index, plan, **service_kwargs):
    service_kwargs.setdefault("cache_capacity", 16)
    service = RecommenderService(
        index, default_k=8, fault_plan=plan, **service_kwargs
    )
    return ServingGateway(
        service,
        GatewayConfig(max_wait_ms=1.0, max_queue_depth=256),
        fault_plan=plan,
    )


class TestRunChaos:
    def test_books_balance_under_faults(self, index, workload):
        plan = FaultPlan(
            [
                FaultSpec(SCORER_ERROR, times=(2, 3, 9)),
                FaultSpec(FLUSHER_CRASH, times=(4,)),
            ]
        )
        gateway = make_gateway(
            index, plan, resilience=ResilienceConfig(retries=1, backoff_s=0.0)
        )
        try:
            report = run_chaos(gateway, workload, threads=4, result_timeout_s=20.0)
        finally:
            gateway.close()
        assert report.ok, report.violations
        load = report.load
        assert load.n_timeout == 0
        assert load.n_degraded >= 1  # the (2, 3) pair burns attempt + retry
        server_resolved = (
            report.accounting["ok"]
            + report.accounting["degraded"]
            + report.accounting["failed"]
        )
        assert server_resolved == report.accounting["admitted"] == len(workload)
        assert report.fault_fires[SCORER_ERROR]["fires"] == 3
        assert "load" in report.to_dict() and report.to_dict()["ok"] is True

    def test_fault_free_chaos_run_is_all_ok(self, index, workload):
        gateway = make_gateway(index, None, resilience=ResilienceConfig())
        try:
            report = run_chaos(gateway, workload, threads=4, result_timeout_s=20.0)
        finally:
            gateway.close()
        assert report.ok
        assert report.load.n_ok == len(workload)
        assert report.load.n_degraded == 0 and report.load.failed_total == 0
        assert report.fault_fires == {}

    def test_chaos_plan_drives_the_run_deterministically(self, index, workload):
        # Scorer points are consulted once per flush, so with one client
        # thread the schedule is reproducible.  Flusher points are left
        # out: the flusher consults the plan on every wakeup, and wakeups
        # per request vary with scheduler timing.
        def run_once():
            plan = chaos_plan(
                seed=5, scorer_errors=2,
                ann_failures=0, flusher_crashes=0, scorer_delays=1,
                scorer_delay_s=0.001,
            )
            gateway = make_gateway(
                index, plan,
                resilience=ResilienceConfig(retries=1, backoff_s=0.0),
            )
            try:
                # single-threaded: consultation order (and thus the fault
                # schedule) is identical between runs
                report = run_chaos(gateway, workload, threads=1,
                                   result_timeout_s=20.0)
            finally:
                gateway.close()
            return report

        first, second = run_once(), run_once()
        assert first.ok and second.ok
        assert first.fault_fires == second.fault_fires
        assert first.load.n_ok == second.load.n_ok
        assert first.load.n_degraded == second.load.n_degraded
        assert first.load.n_failed == second.load.n_failed


class TestVerifyAccounting:
    def test_detects_cooked_books(self, index, workload):
        gateway = make_gateway(index, None)
        try:
            report = run_closed_loop(gateway, workload, threads=4,
                                     result_timeout_s=20.0)
            clean_accounting, clean_violations = verify_accounting(gateway, report)
            assert clean_violations == []
            assert clean_accounting["admitted"] == len(workload)
            # Cook the books: a phantom resolution with no admission.
            gateway.service.stats.record_outcome("ok")
            _, violations = verify_accounting(gateway, report)
            assert violations and "balance" in violations[0]
        finally:
            gateway.close()

    def test_runner_shed_tallies_must_match_counters(self, index, workload):
        gateway = make_gateway(index, None)
        try:
            report = run_closed_loop(gateway, workload, threads=4,
                                     result_timeout_s=20.0)
            report.n_shed["queue_full"] = 7  # client lies about sheds
            _, violations = verify_accounting(gateway, report)
            assert any("shed" in v for v in violations)
        finally:
            gateway.close()


class TestLoadReportFields:
    def test_to_dict_carries_outcome_fields(self, index, workload):
        gateway = make_gateway(index, None)
        try:
            report = run_closed_loop(gateway, workload, threads=2,
                                     result_timeout_s=20.0)
        finally:
            gateway.close()
        payload = report.to_dict()
        assert payload["n_degraded"] == 0
        assert payload["n_failed"] == {}
        assert payload["failed_total"] == 0
        assert payload["n_ok"] == len(workload)
