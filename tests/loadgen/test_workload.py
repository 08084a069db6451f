"""Workload synthesis: determinism, skew shape, cold mix, arrival math."""

import hashlib

import numpy as np
import pytest

from repro.loadgen import (
    ArrivalSchedule,
    WorkloadConfig,
    arrival_times,
    build_workload,
    zipf_users,
)
from repro.loadgen.workload import COLD_ID_OFFSET, N_COLD_USERS, REQUEST_K, ZIPF_S


class TestZipfUsers:
    def test_skew_orders_users_by_rank(self):
        rng = np.random.default_rng(0)
        users = zipf_users(50_000, 100, s=1.1, rng=rng)
        counts = np.bincount(users, minlength=100)
        # rank 0 is the hottest; the head dominates, the tail is thin
        assert counts[0] == counts.max()
        assert counts[0] > 5 * counts[50]
        assert users.min() >= 0 and users.max() < 100

    def test_s_zero_is_uniform(self):
        rng = np.random.default_rng(1)
        users = zipf_users(100_000, 10, s=0.0, rng=rng)
        counts = np.bincount(users, minlength=10)
        assert counts.min() > 0.8 * counts.max()


class TestBuildWorkload:
    def test_same_seed_same_workload(self):
        config = WorkloadConfig(n_requests=500, n_users=50, cold_fraction=0.2)
        a = build_workload(config, seed=3)
        b = build_workload(config, seed=3)
        assert [(r.user, r.k, r.cold) for r in a] == [(r.user, r.k, r.cold) for r in b]
        c = build_workload(config, seed=4)
        assert [r.user for r in a] != [r.user for r in c]

    def test_workload_is_the_recorded_one(self):
        """sha256 over each request's fields, recorded when the k and filter
        mixes were still drawn: they came last in the stream, so dropping
        them moved no user, cold flag or cold id."""
        workload = build_workload(WorkloadConfig(n_requests=400, n_users=1500), seed=3)
        fields = [(r.user, r.k, r.cold) for r in workload]
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == (
            "bff898ad91182fe862afbf9089e0b056b80beb85a0f34597253fe73752ca5f29"
        )

    def test_cold_users_live_outside_warm_id_space(self):
        config = WorkloadConfig(n_requests=2000, n_users=50, cold_fraction=0.25)
        workload = build_workload(config, seed=0)
        cold = [r for r in workload if r.cold]
        warm = [r for r in workload if not r.cold]
        assert 0.15 < len(cold) / len(workload) < 0.35
        assert all(r.user >= 50 for r in cold)
        assert all(0 <= r.user < 50 for r in warm)

    def test_cold_ids_come_from_n_cold_users_past_the_offset(self):
        config = WorkloadConfig(n_requests=3000, n_users=50, cold_fraction=1.0)
        cold_ids = {r.user for r in build_workload(config, seed=1)}
        base = 50 + COLD_ID_OFFSET
        assert cold_ids == set(range(base, base + N_COLD_USERS))

    def test_every_request_asks_for_request_k(self):
        config = WorkloadConfig(n_requests=300, n_users=10, cold_fraction=0.3)
        assert {r.k for r in build_workload(config, seed=2)} == {REQUEST_K}

    def test_warm_users_skew_at_zipf_s(self):
        config = WorkloadConfig(n_requests=5000, n_users=100, cold_fraction=0.0)
        users = [r.user for r in build_workload(config, seed=4)]
        expected = zipf_users(5000, 100, ZIPF_S, np.random.default_rng(4))
        assert users == expected.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(n_requests=0)
        with pytest.raises(ValueError):
            WorkloadConfig(n_users=0)
        with pytest.raises(ValueError):
            WorkloadConfig(cold_fraction=1.5)


class TestArrivalSchedules:
    def test_uniform_rate_spacing(self):
        times = arrival_times(ArrivalSchedule(rate=100.0), 11)
        np.testing.assert_allclose(np.diff(times), 0.01)
        assert times[0] == 0.0

    def test_offsets_are_a_running_sum_of_gaps(self):
        """Gaps are summed one by one, as the open-loop runner has always
        paced them; ``arange / rate`` would round differently."""
        for rate, n in ((1000.0, 300), (20000.0, 300), (7.0, 50)):
            want, t = [], 0.0
            for _ in range(n):
                want.append(t)
                t += 1.0 / rate
            times = arrival_times(ArrivalSchedule(rate=rate), n)
            assert times.tobytes() == np.asarray(want).tobytes()
        assert arrival_times(ArrivalSchedule(), 0).shape == (0,)

    def test_deterministic(self):
        schedule = ArrivalSchedule(rate=500.0)
        np.testing.assert_array_equal(
            arrival_times(schedule, 40), arrival_times(schedule, 40)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalSchedule(rate=0.0)
        with pytest.raises(ValueError):
            ArrivalSchedule(rate=-1.0)
