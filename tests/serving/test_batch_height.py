"""A row's answer does not depend on who shared its batch, on any path.

Every score product runs at ``gemm_rows`` height, padded with copies of
its first row, so the bits of one user's scores are the same whether the
user is ranked alone, in a short batch, or inside a tall one.  One
generated test holds every serving and bulk path to that: a batch of 1-64
users drawn from a catalog of drawn width, factor length and dtype must
get, row for row, the ids and score bits those users get inside one
batch of all ``N_USERS`` users.  ``N_USERS`` is a multiple of every row
multiple ``gemm_rows`` may pick and clears its small-matrix floor at every
drawn width, so the reference batch is itself at a padded height.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.scoring import ScoreBranch
from repro.runtime import ShardedIndex, recommend_all
from repro.serving import (
    GatewayConfig,
    RecommenderService,
    RetrievalEngine,
    ServingGateway,
)
from repro.serving.ann import TieredIndexConfig, TieredIVFIndex, build_ivf
from repro.serving.index import EmbeddingIndex

N_USERS = 288
K = 10


def catalog(dtype, width, d, seed):
    """Two branches in one dtype: clustered main factors with a user
    constant; short side factors with an item constant and ``weight != 1``;
    one to three train exclusions per user, so every user is warm."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(6, d))
    side = 1 + d // 3
    excluded = [
        np.sort(rng.choice(width, rng.integers(1, 4), replace=False)) for _ in range(N_USERS)
    ]
    branches = [
        ScoreBranch(
            user=rng.normal(size=(N_USERS, d)).astype(dtype),
            item=(
                centers[rng.integers(6, size=width)] + 0.3 * rng.normal(size=(width, d))
            ).astype(dtype),
            user_const=(0.1 * rng.normal(size=N_USERS)).astype(dtype),
        ),
        ScoreBranch(
            user=rng.normal(size=(N_USERS, side)).astype(dtype),
            item=(0.3 * rng.normal(size=(width, side))).astype(dtype),
            item_const=(0.1 * rng.normal(size=width)).astype(dtype),
            weight=0.75,
        ),
    ]
    return EmbeddingIndex(
        branches,
        item_categories=np.zeros(width, dtype=np.int64),
        item_price_levels=np.zeros(width, dtype=np.int64),
        n_price_levels=1,
        n_categories=1,
        exclude_indptr=np.concatenate([[0], np.cumsum([len(row) for row in excluded])]),
        exclude_indices=np.concatenate(excluded).astype(np.int64),
        item_popularity=np.ones(width),
    )


def gateway_answers(index, users):
    """The batch through a gateway whose service flushes once all are queued."""
    service = RecommenderService(
        index, default_k=K, max_batch_size=len(users), cache_capacity=0
    )
    with ServingGateway(service, GatewayConfig(max_wait_ms=60_000.0)) as gateway:
        pending = [gateway.submit(int(user)) for user in users]
        answers = [p.result(timeout=30.0) for p in pending]
    return [(answer.items, answer.scores) for answer in answers]


def paths(index, ann, ivf_pq, tiered, pools):
    """Each path as ``users -> [(ids, scores) per row]``."""
    sharded = ShardedIndex(index)
    engine = RetrievalEngine(index)
    exclude = (index.exclude_indptr, index.exclude_indices)

    def rows(ids, scores):
        return list(zip(ids, scores))

    def each(results):
        return [(r.items, r.scores) for r in results]

    def adc(u):
        # the pq scorer's shortlist input: every list's ADC block
        bounds = ivf_pq.list_indptr
        scores = np.hstack([
            ivf_pq._score_segment("pq", u, lst, bounds[lst], bounds[lst + 1])
            for lst in range(ivf_pq.n_lists)
        ])
        return rows(np.broadcast_to(ivf_pq.list_items, scores.shape), scores)

    def bulk(u):
        exported = recommend_all(index, K, users=u)
        return rows(exported.items, exported.scores)

    return {
        "engine exact": lambda u: each(engine.topk(u, K, use_ann=False)),
        "engine pools": lambda u: rows(*sharded.topk_chunk(
            u, K, exclude_csr=exclude, candidate_items=[pools[x] for x in u], with_scores=True
        )),
        "recommend_all": bulk,
        "ivf default": lambda u: rows(*ann.search(u, K, exclude_csr=exclude)),
        "ivf full": lambda u: rows(*ann.search(u, K, nprobe=ann.n_lists, exclude_csr=exclude)),
        "ivf-pq default": lambda u: rows(*ivf_pq.search(u, K, exclude_csr=exclude)),
        "ivf-pq adc": adc,
        "tiered": lambda u: rows(*tiered.search(u, K, exclude_csr=exclude)),
        "gateway vs recommend_many": lambda u: (
            gateway_answers(index, u)
            if len(u) < N_USERS
            else each(RecommenderService(index, default_k=K, cache_capacity=0).recommend_many(u))
        ),
    }


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    width=st.one_of(
        st.integers(5, 49),
        st.integers(50, 192),
        st.integers(193, 420).filter(lambda w: w % 8),
    ),
    d=st.integers(1, 72),
    height=st.integers(1, 64),
    seed=st.integers(0, 2**16),
)
# float64 over 192 items, off a multiple of 8: a partial micro-tile's rows
# move unless the height is a multiple of 12 on AVX-512 (24 on Haswell)
@example(dtype=np.float64, width=203, d=65, height=5, seed=0)
@example(dtype=np.float64, width=250, d=30, height=13, seed=0)
@example(dtype=np.float32, width=40, d=16, height=1, seed=1)
def test_a_row_scores_alike_in_any_batch(dtype, width, d, height, seed):
    index = catalog(dtype, width, d, seed)
    ann = build_ivf(index, seed=0)
    ivf_pq = build_ivf(index, seed=0, pq=True)
    tiered = TieredIVFIndex(
        index, ann.centroids, ann.list_indptr, ann.list_items, ann.nprobe,
        config=TieredIndexConfig(hot_fraction=0.5),
    )
    rng = np.random.default_rng(seed)
    pools = [
        np.sort(rng.choice(width, rng.integers(1, width + 1), replace=False))
        for _ in range(N_USERS)
    ]
    batch = rng.choice(N_USERS, height, replace=False)
    everyone = np.arange(N_USERS)
    dense = index.score(everyone)
    for name, path in paths(index, ann, ivf_pq, tiered, pools).items():
        reference = path(everyone)
        for row, (ids, scores) in zip(batch, path(batch)):
            want_ids, want_scores = reference[row]
            assert np.array_equal(ids, want_ids), (name, row)
            assert scores.dtype == want_scores.dtype
            assert scores.tobytes() == want_scores.tobytes(), (name, row)
        if name.startswith("ivf-pq"):
            continue  # ADC scores, and a re-rank by einsum (ROADMAP item 11)
        # every other path's reference rows are the index's own scores
        ids, scores = reference[batch[0]]
        real = scores > -np.inf
        assert dense[batch[0], ids[real]].tobytes() == scores[real].tobytes(), name

