"""Vectorized metrics_from_rankings == per-user scalar reference, bit for bit.

The batch evaluator's determinism contract ("metrics bit-identical across
worker counts and arms") leans on the vectorized Recall/NDCG reduction
producing the exact floats the scalar ``recall_at_k`` / ``ndcg_at_k`` loop
produces — same per-user summation order, same divisions.  These tests pin
that equivalence on adversarial inputs.
"""

import tracemalloc

import numpy as np
import pytest

from repro.eval.metrics import mean_metric, ndcg_at_k, recall_at_k
from repro.eval.ranking import metrics_from_rankings


def scalar_reference(rankings, positives, ks):
    """The pre-vectorization implementation, verbatim."""
    ks = sorted(set(int(k) for k in ks))
    users = sorted(positives)
    results = {}
    for k in ks:
        recalls = [recall_at_k(rankings[user], positives[user], k) for user in users]
        ndcgs = [ndcg_at_k(rankings[user], positives[user], k) for user in users]
        results[f"Recall@{k}"] = mean_metric(recalls)
        results[f"NDCG@{k}"] = mean_metric(ndcgs)
    return results


@pytest.mark.parametrize("seed", range(25))
def test_bitwise_parity_on_random_cases(seed):
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(1, 30))
    n_items = int(rng.integers(15, 150))
    kmax = int(rng.integers(2, min(n_items, 25)))
    ks = sorted(set(int(k) for k in rng.integers(1, kmax + 1, size=3)))
    rankings = {user: rng.permutation(n_items)[:kmax] for user in range(n_users)}
    positives = {
        user: set(rng.permutation(n_items)[: int(rng.integers(1, 12))].tolist())
        for user in range(n_users)
    }
    got = metrics_from_rankings(rankings, positives, ks)
    want = scalar_reference(rankings, positives, ks)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key  # exact float equality, not approx


def test_all_hits_and_no_hits():
    rankings = {0: np.arange(10), 1: np.arange(10, 20)}
    positives = {0: set(range(5)), 1: {99}}
    got = metrics_from_rankings(rankings, positives, (5, 10))
    want = scalar_reference(rankings, positives, (5, 10))
    assert got == want
    assert got["Recall@5"] == pytest.approx(0.5)  # user 0 perfect, user 1 zero


def test_more_relevant_than_k():
    rankings = {0: np.arange(6)}
    positives = {0: set(range(20))}
    got = metrics_from_rankings(rankings, positives, (3, 6))
    assert got == scalar_reference(rankings, positives, (3, 6))


def test_sentinel_padded_rankings_count_as_misses():
    # A BulkRecommendations row whose pool was smaller than k pads with -1;
    # those must be plain misses, never wrap into another user's keys.
    rankings = {0: np.array([49, -1, -1]), 1: np.array([5, 3, -1])}
    positives = {0: {49}, 1: {3}}
    got = metrics_from_rankings(rankings, positives, (3,))
    assert got == scalar_reference(rankings, positives, (3,))
    assert got["Recall@3"] == pytest.approx(1.0)  # one hit each, |relevant|=1


def test_ragged_rankings_fall_back_to_scalar_loop():
    # One user's list is shorter than max(ks): the vectorized path cannot
    # stack, but results must still match the scalar loop.
    rankings = {0: np.arange(10), 1: np.arange(3)}
    positives = {0: {1, 2}, 1: {0}}
    got = metrics_from_rankings(rankings, positives, (5,))
    assert got == scalar_reference(rankings, positives, (5,))


def test_rejects_empty_inputs():
    with pytest.raises(ValueError):
        metrics_from_rankings({}, {}, (5,))
    with pytest.raises(ValueError):
        metrics_from_rankings({0: np.arange(5)}, {0: set()}, (5,))
    with pytest.raises(ValueError):
        metrics_from_rankings({0: np.arange(5)}, {0: {1}}, ())


def test_a_neighbours_positive_is_a_miss():
    # Membership is per (user, item): user 0 ranks exactly user 1's
    # positives, and the last item id sits on the key boundary.
    rankings = {0: np.array([7, 8, 9]), 1: np.array([0, 1, 2])}
    positives = {0: {0}, 1: {7, 8, 9}}
    got = metrics_from_rankings(rankings, positives, (3,))
    assert got == scalar_reference(rankings, positives, (3,))
    assert got["Recall@3"] == 0.0


def test_sparse_ids_over_a_wide_catalog():
    rng = np.random.default_rng(3)
    n_items = 1_000_003
    rankings = {user: rng.choice(n_items, size=20, replace=False) for user in range(40)}
    positives = {
        user: set(rankings[user][rng.integers(0, 20, size=3)].tolist())
        | set(rng.integers(0, n_items, size=4).tolist())
        for user in range(40)
    }
    got = metrics_from_rankings(rankings, positives, (5, 20))
    assert got == scalar_reference(rankings, positives, (5, 20))


def test_scratch_does_not_grow_with_the_catalog():
    """``tracemalloc`` is exact per (code, input).  The membership test
    works on keys the size of the rankings, so no ``users x n_items``
    table is built."""
    rng = np.random.default_rng(5)
    n_users, n_items, kmax = 2_000, 100_000, 50
    rankings = {user: rng.integers(0, n_items, size=kmax) for user in range(n_users)}
    positives = {user: set(rng.integers(0, n_items, size=10).tolist()) for user in range(n_users)}
    tracemalloc.start()
    try:
        metrics_from_rankings(rankings, positives, (10, kmax))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * (1 << 20), peak
