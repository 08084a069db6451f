"""Selection and exact ranking run in bounded scratch, and the blocking
moves no result.

The differential half shrinks :data:`repro.eval.topk.SELECT_BLOCK_ELEMENTS`
to one, two or three rows per block and holds every row-wise kernel to its
per-row reference on tie-heavy inputs — so a row whose boundary ties need
repair sits next to a block edge in almost every example.  The counter half
is ``tracemalloc``: exact per (code, input), and each ceiling fails at the
parent, where the scratch grew with rows x catalog.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import ScoreBranch
from repro.eval import topk
from repro.eval.ann import exact_rankings
from repro.eval.topk import NEG_INF, topk_indices, topk_indices_rows, topk_pairs, topk_pairs_rows
from repro.runtime import recommend_all
from repro.runtime.sharded import ITEM_BLOCK_SIZE
from repro.serving.ann.ivf import _local_topk_set
from repro.serving.index import EmbeddingIndex

MB = 1 << 20


@st.composite
def tied_blocks(draw):
    """(scores, k, rows per block): integer scores in 1-4 levels, some
    entries and possibly whole rows masked to ``-inf``; k at the edges."""
    rows = draw(st.integers(1, 10))
    n = draw(st.integers(1, 40))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    levels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(0, levels, size=(rows, n)).astype(dtype)
    scores[rng.random((rows, n)) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = NEG_INF
    scores[rng.random(rows) < draw(st.sampled_from([0.0, 0.25]))] = NEG_INF
    k = draw(st.sampled_from([1, max(1, n - 1), n]) | st.integers(1, n))
    return scores, k, draw(st.integers(1, 3))


class TestBlockedSelectionMatchesThePerRowReference:
    @settings(max_examples=300, deadline=None)
    @given(case=tied_blocks())
    def test_every_row_kernel(self, case):
        scores, k, rows_per_block = case
        rows, n = scores.shape
        ids = np.argsort(np.random.default_rng(n).random((rows, 3 * n)), axis=1)[:, :n]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(topk, "SELECT_BLOCK_ELEMENTS", rows_per_block * n)
            got = topk_indices_rows(scores, k)
            pairs = topk_pairs_rows(ids, scores, k)
            local = _local_topk_set(scores, k)
        for row in range(rows):
            expected = topk_indices(scores[row], k)
            np.testing.assert_array_equal(got[row], expected)
            np.testing.assert_array_equal(np.sort(local[row]), np.sort(expected))
            np.testing.assert_array_equal(pairs[row], topk_pairs(ids[row], scores[row], k))

    def test_a_partition_runs_once_per_block(self, monkeypatch):
        calls = []
        argpartition = np.argpartition

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return argpartition(a, *args, **kwargs)

        monkeypatch.setattr(np, "argpartition", counting)
        monkeypatch.setattr(topk, "SELECT_BLOCK_ELEMENTS", 3 * 20)
        rng = np.random.default_rng(1)  # continuous: no row needs a per-row repair
        topk_indices_rows(rng.normal(size=(10, 20)), 4)
        assert calls == [(3, 20), (3, 20), (3, 20), (1, 20)]
        calls.clear()
        topk_indices_rows(rng.normal(size=(2, 100)), 4)  # rows wider than the budget
        assert calls == [(1, 100), (1, 100)]


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def wide_index(n_users, n_items, dim=16):
    rng = np.random.default_rng(7)
    return EmbeddingIndex(
        [
            ScoreBranch(
                user=rng.normal(size=(n_users, dim)).astype(np.float32),
                item=rng.normal(size=(n_items, dim)).astype(np.float32),
            )
        ],
        item_categories=np.zeros(n_items, dtype=np.int64),
        item_price_levels=np.zeros(n_items, dtype=np.int64),
        n_price_levels=1,
        n_categories=1,
        exclude_indptr=np.arange(0, 10 * n_users + 1, 10, dtype=np.int64),
        exclude_indices=np.tile(np.arange(0, n_items, n_items // 10), n_users)[: 10 * n_users],
        item_popularity=np.ones(n_items),
    )


class TestScratchCeilings:
    def test_topk_indices_rows(self):
        """256 x 24 000 float32 at k = 50: the parent peaked at 70.3 MB (a
        negated copy, a full int64 partition matrix and a tie mask)."""
        scores = np.random.default_rng(0).normal(size=(256, 24_000)).astype(np.float32)
        k = 50
        block_scratch = topk.SELECT_BLOCK_ELEMENTS * (scores.itemsize + 9)
        ceiling = block_scratch + 4 * scores.shape[0] * k * 8
        assert ceiling <= 4 * MB < scores.nbytes
        assert traced_peak(lambda: topk_indices_rows(scores, k)) <= ceiling

    def test_exact_rankings(self):
        """64 users x 200 000 items: the parent scored the catalog in one
        full-width block and peaked at ~200 MB; item shards hold it to a
        few shard-width blocks."""
        users, n_items = 64, 200_000
        index = wide_index(users, n_items)
        ceiling = 4 * users * ITEM_BLOCK_SIZE * 8
        assert ceiling == 16 * MB
        assert traced_peak(lambda: exact_rankings(index, np.arange(users), 50)) <= ceiling

    def test_recommend_all(self):
        """64 users x 100 000 items at the default runtime: the parent scored
        the catalog in one full-width block (64 x n_items scores)."""
        users, n_items = 64, 100_000
        index = wide_index(users, n_items)
        ceiling = 4 * users * ITEM_BLOCK_SIZE * 8
        assert ceiling < users * n_items * 4
        assert traced_peak(lambda: recommend_all(index, k=50)) <= ceiling
