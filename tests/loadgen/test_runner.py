"""Load runners: reports add up, sheds are counted, depth stays bounded."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.loadgen import (
    ArrivalSchedule,
    WorkloadConfig,
    build_workload,
    run_closed_loop,
    run_open_loop,
)
from repro.serving import GatewayConfig, RecommenderService, ServingGateway, export_index


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


def make_gateway(index, max_batch_size=16, **config_kwargs):
    config_kwargs.setdefault("max_queue_depth", 256)
    config_kwargs.setdefault("max_wait_ms", 2.0)
    service = RecommenderService(
        index, default_k=8, max_batch_size=max_batch_size, cache_capacity=0
    )
    return ServingGateway(service, GatewayConfig(**config_kwargs))


@pytest.fixture(scope="module")
def workload(index):
    config = WorkloadConfig(
        n_requests=200, n_users=index.n_users, zipf_s=1.1, cold_fraction=0.1,
        k_mix=((5, 0.5), (10, 0.5)),
    )
    return build_workload(config, seed=11)


class TestClosedLoop:
    def test_report_accounts_for_every_request(self, index, workload):
        with make_gateway(index) as gateway:
            report = run_closed_loop(gateway, workload, threads=4, result_timeout_s=10.0)
        assert report.mode == "closed"
        assert report.n_requests == len(workload)
        assert report.n_ok + report.shed_total + report.n_timeout == len(workload)
        assert report.n_ok == len(workload)  # ample queue: nothing shed
        assert report.qps > 0
        assert report.p99_ms >= report.p50_ms > 0
        assert report.client_p99_ms >= report.client_p50_ms > 0
        # client-side e2e can never beat the serving-side view
        assert report.client_p50_ms >= report.p50_ms * 0.5
        assert report.max_queue_depth <= 256
        d = report.to_dict()
        assert d["serving"]["requests"] == len(workload)

    def test_single_thread_equals_sequential(self, index, workload):
        with make_gateway(index) as gateway:
            report = run_closed_loop(gateway, workload[:50], threads=1, result_timeout_s=10.0)
        assert report.n_ok == 50


class TestOpenLoop:
    def test_paced_arrivals_all_complete(self, index, workload):
        with make_gateway(index) as gateway:
            schedule = ArrivalSchedule(mode="uniform", rate=5000.0)
            report = run_open_loop(gateway, workload, schedule, result_timeout_s=10.0)
        assert report.mode == "open"
        assert report.n_ok == len(workload)
        assert report.offered_qps >= report.qps

    def test_burst_overload_sheds_but_bounds_depth(self, index, workload):
        """The backpressure acceptance criterion: a burst far above
        capacity is shed, never buffered beyond max_queue_depth, and
        every shed shows up in the gateway's ledger."""
        depth = 16
        # size trigger (64) sits above the depth bound (16): the inline
        # flush cannot rescue the burst, so backpressure must do the work
        with make_gateway(
            index, max_queue_depth=depth, max_wait_ms=20.0, max_batch_size=64
        ) as gateway:
            schedule = ArrivalSchedule(mode="onoff", rate=200_000.0, on_s=0.05, off_s=0.01)
            report = run_open_loop(gateway, workload, schedule, result_timeout_s=10.0)
            assert report.max_queue_depth <= depth
            assert report.n_shed.get("queue_full", 0) > 0
            # the runner's ledger and the gateway's metrics agree exactly
            assert report.n_shed["queue_full"] == gateway.shed_count("queue_full")
        assert report.n_ok + report.shed_total + report.n_timeout == len(workload)

    def test_rate_limited_sheds_counted_separately(self, index, workload):
        with make_gateway(
            index, max_wait_ms=5.0, rate_limit=500.0, rate_burst=10.0
        ) as gateway:
            schedule = ArrivalSchedule(mode="uniform", rate=50_000.0)
            report = run_open_loop(gateway, workload, schedule, result_timeout_s=10.0)
        assert report.n_shed.get("rate_limited", 0) > 0
        assert report.n_ok + report.shed_total + report.n_timeout == len(workload)
