"""Every IVF item layout answers alike, against exact search as the oracle.

Three paths rank the same drawn request: a plain :class:`IVFIndex`, whose
fine stage gathers each probed list's rows from the source index per call;
a :class:`TieredIVFIndex` at hot fraction 0, 0.5 and 1, which scores the
list-ordered payload of an ``include_items`` archive (memory-mapped cold
lists, resident copies of hot ones); and exact search over the whole
catalog.  Drawn: catalog width and list count (so list offsets and widths
land off multiples of 8), dtype, factor length, a filter mask, train
exclusions, integer factors that plant exact score ties, and the fine
scorer.

What is asserted is what ``docs/serving.md`` promises:

* plain and tiered are the same arithmetic on blocks of the same layout, so
  ids and score bits agree in either dtype, at the default probe and at
  full probe;
* at full probe the exact scorer is exact search: same ids and the same
  score bits in either dtype, whatever the lists' widths and offsets;
* the pq scorer re-ranks its shortlist exactly; with integer factors (every
  product exact) and each list short enough to be re-ranked whole, it is
  exact search too, bits included.
"""

import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.scoring import ScoreBranch
from repro.serving import AllowListFilter, RetrievalEngine
from repro.serving.ann import TieredIndexConfig, TieredIVFIndex, build_ivf
from repro.serving.index import EmbeddingIndex

N_USERS = 40


def catalog(dtype, n_items, d, integer, seed):
    """Two branches: main factors with a user constant; side factors with an
    item constant and ``weight != 1``.  Integer factors make every score an
    exact small integer (the side weight is 1/2), so ties are real."""
    rng = np.random.default_rng(seed)
    side = 1 + d // 3

    def draw(rows, cols=None):
        shape = (rows,) if cols is None else (rows, cols)
        if integer:
            return rng.integers(-3, 4, size=shape).astype(dtype)
        return rng.normal(size=shape).astype(dtype)

    excluded = [
        np.sort(rng.choice(n_items, rng.integers(0, 4), replace=False))
        for _ in range(N_USERS)
    ]
    branches = [
        ScoreBranch(user=draw(N_USERS, d), item=draw(n_items, d), user_const=draw(N_USERS)),
        ScoreBranch(
            user=draw(N_USERS, side), item=draw(n_items, side),
            item_const=draw(n_items), weight=0.5,
        ),
    ]
    return EmbeddingIndex(
        branches,
        item_categories=np.zeros(n_items, dtype=np.int64),
        item_price_levels=np.zeros(n_items, dtype=np.int64),
        n_price_levels=1,
        n_categories=1,
        exclude_indptr=np.concatenate([[0], np.cumsum([len(row) for row in excluded])]),
        exclude_indices=np.concatenate(excluded).astype(np.int64),
        item_popularity=np.ones(n_items),
    )


def assert_same(got, want, what):
    ids, scores = got
    want_ids, want_scores = want
    assert np.array_equal(ids, want_ids), what
    assert scores.dtype == want_scores.dtype, what
    assert scores.tobytes() == want_scores.tobytes(), what


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    n_items=st.integers(20, 260),
    d=st.integers(1, 24),
    n_lists=st.integers(1, 20),
    integer=st.booleans(),
    masked=st.booleans(),
    exclude=st.booleans(),
    scorer=st.sampled_from(["exact", "pq"]),
    k=st.integers(1, 30),
    nprobe=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
@example(dtype=np.float64, n_items=203, d=13, n_lists=7, integer=True, masked=True,
         exclude=True, scorer="exact", k=25, nprobe=2, seed=0)
@example(dtype=np.float32, n_items=97, d=9, n_lists=5, integer=True, masked=False,
         exclude=True, scorer="pq", k=30, nprobe=1, seed=1)
@example(dtype=np.float32, n_items=250, d=20, n_lists=11, integer=False, masked=True,
         exclude=False, scorer="pq", k=4, nprobe=3, seed=2)
def test_every_item_layout_answers_alike(
    dtype, n_items, d, n_lists, integer, masked, exclude, scorer, k, nprobe, seed
):
    index = catalog(dtype, n_items, d, integer, seed)
    ann = build_ivf(index, n_lists=n_lists, seed=seed, pq=(scorer == "pq"))
    users = np.arange(N_USERS)
    rng = np.random.default_rng(seed + 1)
    mask = None
    if masked:
        mask = rng.random(n_items) < rng.uniform(0.2, 1.0)
        mask[rng.integers(n_items)] = True
    exclude_csr = (index.exclude_indptr, index.exclude_indices) if exclude else None

    def answers(ivf, probe):
        return ivf.search(
            users, k, nprobe=probe, scorer=scorer,
            exclude_csr=exclude_csr, candidate_mask=mask,
        )

    default, full = answers(ann, nprobe), answers(ann, ann.n_lists)
    with tempfile.TemporaryDirectory() as root:
        path = ann.save(os.path.join(root, "ann"), include_items=True)
        for fraction in (0.0, 0.5, 1.0):
            tiered = TieredIVFIndex.load(path, index, TieredIndexConfig(hot_fraction=fraction))
            assert_same(answers(tiered, nprobe), default, ("tiered", fraction, "default"))
            assert_same(answers(tiered, tiered.n_lists), full, ("tiered", fraction, "full"))
            del tiered

    reranked_whole = ann.rerank_factor * k >= ann.list_sizes().max()
    if scorer == "pq" and not (integer and reranked_whole):
        return
    filters = [] if mask is None else [AllowListFilter(np.flatnonzero(mask))]
    reference = RetrievalEngine(index).topk(
        users, k, exclude_train=exclude, filters=filters, use_ann=False
    )
    ids, scores = full
    for row, result in enumerate(reference):
        kept = ids[row] >= 0
        assert np.array_equal(ids[row][kept], result.items), row
        assert not kept[len(result.items):].any(), row
        assert scores[row][kept].tobytes() == result.scores.tobytes(), row
