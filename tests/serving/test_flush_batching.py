"""A flush ranks its warm lane once, and no answer depends on its batch.

``RecommenderService.flush`` answers all of a flush's warm requests with
one retrieval per ``exclude_train`` value: ranked at the lane's largest
``k``, each row under its own filter mask, each answer trimmed to its own
``k``.  Under an IVF-PQ default scorer the engine gives each distinct ``k``
its own kernel call, because the PQ shortlist grows with ``k``.

* The differential draws a mixed flush (``k`` in 1-60, zero to five price
  bands per request with signatures repeating across requests, both
  exclusion settings, cold ids with price profiles, integer factors that
  plant exact ties) on every index path (exact, IVF at its default probe,
  tiered IVF, IVF-PQ) in either dtype, and asserts that every answer has
  the items and score bytes of the same request flushed alone.
* The counter test pins the grouping itself: 64 warm requests over two
  ``k`` and six filter signatures are one batch.
* A filter the index cannot evaluate fails only its own requests, and a
  duck-typed ANN with no ``default_scorer`` still serves a mixed flush
  (through the exact fallback).
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.scoring import ScoreBranch
from repro.runtime.sharded import ShardedIndex
from repro.serving import AllowListFilter, PriceBandFilter, RecommenderService
from repro.serving.ann import TieredIndexConfig, TieredIVFIndex, build_ivf
from repro.serving.index import EmbeddingIndex

N_USERS, N_LEVELS = 30, 5
PATHS = ("exact", "ivf", "tiered", "ivf-pq")
#: one band per price level, as the benchmark's scan mix draws them
BANDS = [PriceBandFilter(level, level) for level in range(N_LEVELS)]
#: coarse codes and no over-fetch: a PQ shortlist that really depends on k
COARSE_PQ = {"pq": True, "pq_centroids": 4, "rerank_factor": 1}


def catalog(dtype, n_items, d, integer, seed):
    """Two branches over a priced catalog; every user has train history.
    Integer factors make every score an exact small integer (the side
    weight is 1/2), so ties are real."""
    rng = np.random.default_rng(seed)
    side = 1 + d // 3

    def draw(rows, cols=None):
        shape = (rows,) if cols is None else (rows, cols)
        if integer:
            return rng.integers(-3, 4, size=shape).astype(dtype)
        return rng.normal(size=shape).astype(dtype)

    excluded = [
        np.sort(rng.choice(n_items, rng.integers(1, 5), replace=False)) for _ in range(N_USERS)
    ]
    return EmbeddingIndex(
        [
            ScoreBranch(user=draw(N_USERS, d), item=draw(n_items, d), user_const=draw(N_USERS)),
            ScoreBranch(
                user=draw(N_USERS, side), item=draw(n_items, side),
                item_const=draw(n_items), weight=0.5,
            ),
        ],
        item_categories=np.zeros(n_items, dtype=np.int64),
        item_price_levels=rng.integers(0, N_LEVELS, size=n_items),
        n_price_levels=N_LEVELS,
        n_categories=1,
        exclude_indptr=np.concatenate([[0], np.cumsum([len(row) for row in excluded])]),
        exclude_indices=np.concatenate(excluded).astype(np.int64),
        item_popularity=np.ones(n_items),
    )


def attach(path, index, seed, root):
    """The ANN index ``path`` serves through (``None`` = exact)."""
    if path == "exact":
        return None
    ann = build_ivf(index, n_lists=6, seed=seed, **(COARSE_PQ if path == "ivf-pq" else {}))
    if path == "tiered":
        saved = ann.save(os.path.join(root, "ann"), include_items=True)
        return TieredIVFIndex.load(saved, index, TieredIndexConfig(hot_fraction=0.5))
    return ann


def serve(service, requests):
    """Submit ``requests`` (kwargs dicts) and answer them in one flush."""
    pending = [service.submit(**request) for request in requests]
    assert service.flush() == len(requests)
    return [p.result() for p in pending]


@st.composite
def flushes(draw):
    """A list of request kwargs whose filter sets come from a small drawn
    pool, so one signature repeats across requests."""
    pool = draw(st.lists(st.lists(st.sampled_from(BANDS), max_size=5), min_size=1, max_size=4))
    request = st.fixed_dictionaries({
        "user": st.one_of(
            st.integers(0, N_USERS - 1),  # warm
            st.integers(N_USERS, N_USERS + 3),  # cold
        ),
        "k": st.integers(1, 60),
        "exclude_train": st.booleans(),
        "filters": st.sampled_from(pool),
        "price_profile": st.one_of(
            st.none(), st.lists(st.integers(0, 4), min_size=N_LEVELS, max_size=N_LEVELS)
        ),
    })
    return draw(st.lists(request, min_size=2, max_size=24))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    path=st.sampled_from(PATHS),
    dtype=st.sampled_from([np.float32, np.float64]),
    n_items=st.integers(40, 200),
    d=st.integers(1, 12),
    integer=st.booleans(),
    requests=flushes(),
    seed=st.integers(0, 2**16),
)
@example(
    path="ivf-pq", dtype=np.float32, n_items=180, d=8, integer=False, seed=3,
    requests=[
        {"user": user, "k": k, "exclude_train": True, "filters": [], "price_profile": None}
        for user in range(6) for k in (1, 50)
    ],
)
@example(
    path="ivf", dtype=np.float64, n_items=97, d=5, integer=True, seed=0,
    requests=[
        {"user": 2, "k": 3, "exclude_train": True, "filters": [BANDS[1]], "price_profile": None},
        {"user": 2, "k": 60, "exclude_train": True, "filters": [], "price_profile": None},
        {"user": 5, "k": 7, "exclude_train": True, "filters": [BANDS[1]], "price_profile": None},
        {"user": 31, "k": 9, "exclude_train": False, "filters": [BANDS[2]],
         "price_profile": [1, 0, 0, 0, 3]},
    ],
)
def test_a_mixed_flush_answers_as_each_request_alone(
    path, dtype, n_items, d, integer, requests, seed
):
    index = catalog(dtype, n_items, d, integer, seed)
    with tempfile.TemporaryDirectory() as root:
        service = RecommenderService(
            index, ann=attach(path, index, seed, root), max_batch_size=10**9, cache_capacity=0
        )
        for request, answer in zip(requests, serve(service, requests)):
            [alone] = serve(service, [request])
            assert answer.source == alone.source, request
            assert np.array_equal(answer.items, alone.items), request
            assert answer.scores.dtype == alone.scores.dtype, request
            assert answer.scores.tobytes() == alone.scores.tobytes(), request


def scan_mix():
    """64 warm requests over k in {10, 50} and all six filter signatures
    (five bands plus none): twelve ``(k, signature)`` pairs."""
    signatures = [()] + [(band,) for band in BANDS]
    return [
        {"user": row % N_USERS, "k": (10, 50)[row // 6 % 2], "filters": signatures[row % 6]}
        for row in range(64)
    ]


@pytest.fixture(scope="module")
def priced_index():
    return catalog(np.float32, 400, 8, False, seed=7)


@pytest.mark.parametrize("path", ["exact", "ivf"])
def test_one_flush_of_warm_requests_is_one_batch(priced_index, path):
    ann = None if path == "exact" else build_ivf(priced_index, seed=0)
    service = RecommenderService(priced_index, ann=ann, max_batch_size=10**9, cache_capacity=0)
    requests = scan_mix()
    assert len({(r["k"], r["filters"]) for r in requests}) == 12
    before = service.stats.batches
    answers = serve(service, requests)
    assert service.stats.batches - before == 1
    assert (len(answers[0].items), len(answers[6].items)) == (10, 50)


def test_ivf_pq_ranks_each_k_apart(priced_index):
    """PQ re-ranks a ``rerank_factor * k`` shortlist per list, so a k=10 row
    ranked at k=50 could answer differently: the flush is still one batch,
    but the engine searches the two ``k`` apart, and every k=10 answer is
    the one it gets alone."""
    ann = build_ivf(priced_index, seed=0, **COARSE_PQ)
    service = RecommenderService(priced_index, ann=ann, max_batch_size=10**9, cache_capacity=0)
    assert service.ann.default_scorer == "pq"
    searched = []
    search = ann.search

    def counting_search(users, k, **kwargs):
        searched.append(k)
        return search(users, k, **kwargs)

    ann.search = counting_search
    requests = scan_mix()
    before = service.stats.batches
    answers = serve(service, requests)
    assert service.stats.batches - before == 1
    assert sorted(searched) == [10, 50]
    for request, answer in zip(requests, answers):
        if request["k"] != 10:
            continue
        [alone] = serve(service, [request])
        assert np.array_equal(answer.items, alone.items), request
        assert answer.scores.tobytes() == alone.scores.tobytes(), request


@pytest.mark.parametrize("path", ["exact", "ivf"])
def test_a_bad_filter_fails_only_its_own_requests(priced_index, path):
    """Masks are built at flush time, inside the one warm retrieval: a filter
    the index cannot evaluate (an out-of-range allow-list id, a raw-price
    band on an index exported without raw prices) fails its own requests
    with its own error, and every other request of the flush is answered
    as it would be alone."""
    assert priced_index.item_raw_prices is None
    ann = None if path == "exact" else build_ivf(priced_index, seed=0)
    service = RecommenderService(priced_index, ann=ann, max_batch_size=10**9, cache_capacity=0)
    bad = {
        0: ([AllowListFilter([priced_index.n_items + 3])], IndexError),
        1: ([PriceBandFilter(max_level=9.5, use_raw_prices=True)], ValueError),
    }
    requests = scan_mix()
    for row in range(0, 64, 5):
        request = requests[row]
        request["filters"] = bad[row % 2][0] + list(request["filters"])
    pending = [service.submit(**request) for request in requests]
    assert service.flush() == len(requests)
    for row, (request, handle) in enumerate(zip(requests, pending)):
        if row % 5 == 0:
            with pytest.raises(bad[row % 2][1]):
                handle.result()
            continue
        [alone] = serve(service, [request])
        answer = handle.result()
        assert np.array_equal(answer.items, alone.items), request
        assert answer.scores.tobytes() == alone.scores.tobytes(), request
    assert service.stats.batches == 1 + len(requests) - len(range(0, 64, 5))
    with pytest.raises(IndexError):
        service.engine.topk([0, 1], 5, filters=bad[0][0])


class _OfflineANN:
    """The chaos drill's dead ANN: ``n_items``, a ``memory_report`` and a
    ``search`` that always fails transiently — nothing more."""

    kind = "offline"

    def __init__(self, n_items):
        self.n_items = n_items

    def search(self, *args, **kwargs):
        raise RuntimeError("ann shard offline")

    def memory_report(self):
        return {"kind": self.kind, "tiers": {"hot": 0, "cold": 0}}


def test_a_duck_typed_ann_falls_back_to_exact_for_a_mixed_flush(priced_index):
    offline = RecommenderService(
        priced_index, ann=_OfflineANN(priced_index.n_items), max_batch_size=10**9,
        cache_capacity=0,
    )
    exact = RecommenderService(priced_index, max_batch_size=10**9, cache_capacity=0)
    requests = scan_mix()
    for got, want in zip(serve(offline, requests), serve(exact, requests)):
        assert np.array_equal(got.items, want.items)
        assert got.scores.tobytes() == want.scores.tobytes()
    assert offline.engine.ann_fallbacks == 1


def test_a_mask_stack_needs_its_row_index(priced_index):
    """A 1-D mask is every row's; a stack of masks must say whose is whose."""
    stack = np.stack([priced_index.item_price_levels == level for level in range(2)])
    users = np.arange(4)
    for kernel in (ShardedIndex(priced_index).topk_chunk, build_ivf(priced_index, seed=0).search):
        with pytest.raises(ValueError, match="needs mask_rows"):
            kernel(users, 5, candidate_mask=stack)
        with pytest.raises(ValueError, match="one entry per row"):
            kernel(users, 5, candidate_mask=stack, mask_rows=[0, 1])
        ids, _ = kernel(users, 5, candidate_mask=stack, mask_rows=[0, 1, 1, 0])
        levels = priced_index.item_price_levels[ids]
        assert (levels == np.array([0, 1, 1, 0])[:, None]).all()
