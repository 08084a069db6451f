"""Exact scoring runs in fixed row blocks, and the blocking moves no result.

:meth:`ShardedIndex.topk_chunk` ranks its open rows
:data:`~repro.runtime.sharded.ROW_BLOCK` at a time, so its score scratch is
``ROW_BLOCK x ITEM_BLOCK_SIZE`` whatever the caller's batch.  The
differential half shrinks the block to one, two or three rows (the
``row_block`` fixture) across item layouts (``item_block``) and holds every
call to the one-block answer, bit for bit.  The counter half is
``tracemalloc``: exact per (code, input), and each ceiling fails at the
parent, where the scratch grew with the caller's batch.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scoring import ROW_MULTIPLE, ScoreBranch, score_branches
from repro.runtime import recommend_all, sharded
from repro.runtime.sharded import ShardedIndex
from repro.serving.index import EmbeddingIndex
from repro.serving.retrieval import RetrievalEngine

MiB = 1 << 20


def test_full_blocks_need_no_padding_rows():
    assert sharded.ROW_BLOCK % ROW_MULTIPLE == 0


@st.composite
def chunks(draw):
    """Branch factors with planted integer ties, a user chunk that crosses
    block edges, and the masks a call can carry."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n_users = draw(st.integers(1, 12))
    n_items = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    branches = [
        ScoreBranch(
            user=rng.integers(-2, 3, size=(n_users, dim)).astype(dtype),
            item=rng.integers(-2, 3, size=(n_items, dim)).astype(dtype),
        )
        for dim in draw(st.sampled_from([(3,), (5, 2)]))
    ]
    users = rng.integers(0, n_users, size=draw(st.integers(1, 10)))
    exclude_csr = None
    if draw(st.booleans()):
        counts = rng.integers(0, n_items + 1, size=n_users)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        indices = np.concatenate(
            [np.sort(rng.choice(n_items, count, replace=False)) for count in counts]
        ).astype(np.int64)
        exclude_csr = (indptr, indices)
    pool = draw(st.sampled_from(["all", "mask", "items"]))
    masks = {}
    if pool == "mask":
        masks["candidate_mask"] = rng.random(n_items) < 0.6
    elif pool == "items":
        masks["candidate_items"] = [
            np.flatnonzero(rng.random(n_items) < 0.5) if rng.random() < 0.4 else None
            for _ in users
        ]
    return dict(
        branches=branches,
        users=users,
        k=draw(st.integers(1, n_items + 2)),
        exclude_csr=exclude_csr,
        with_scores=draw(st.booleans()),
        item_width=draw(st.integers(1, n_items)),
        rows=draw(st.integers(1, 3)),
        **masks,
    )


class TestRowBlocksMoveNoResult:
    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=chunks())
    def test_blocked_equals_one_block(self, case, item_block, row_block):
        item_block(case.pop("item_width"))
        index = ShardedIndex(case.pop("branches"))
        rows = case.pop("rows")
        users, k = case.pop("users"), case.pop("k")
        row_block(1 << 30)
        expected_ids, expected_scores = index.topk_chunk(users, k, **case)
        row_block(rows)
        ids, scores = index.topk_chunk(users, k, **case)
        np.testing.assert_array_equal(ids, expected_ids)
        if case["with_scores"]:
            assert scores.dtype == expected_scores.dtype
            np.testing.assert_array_equal(scores, expected_scores)
        else:
            assert scores is None and expected_scores is None

    def test_recommend_all_is_blocked_through_the_runtime(self, row_block):
        index = serve_catalog(40, 500)
        row_block(1 << 30)
        expected = recommend_all(index, k=7, user_chunk=25)
        row_block(3)
        got = recommend_all(index, k=7, user_chunk=25)
        np.testing.assert_array_equal(got.items, expected.items)
        np.testing.assert_array_equal(got.scores, expected.scores)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def serve_catalog(n_users, n_items, seed=3):
    """A two-branch float32 catalog shaped like the serving benchmark's:
    56 + 8 columns, an item constant and a short train history per user."""
    rng = np.random.default_rng(seed)

    def factor(rows, dim):
        return rng.normal(size=(rows, dim)).astype(np.float32)

    counts = rng.integers(3, 15, size=n_users)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    indices = np.concatenate(
        [np.sort(rng.choice(n_items, count, replace=False)) for count in counts]
    ).astype(np.int64)
    return EmbeddingIndex(
        [
            ScoreBranch(user=factor(n_users, 56), item=factor(n_items, 56)),
            ScoreBranch(
                user=factor(n_users, 8), item=factor(n_items, 8),
                item_const=factor(n_items, 1)[:, 0],
            ),
        ],
        item_categories=np.zeros(n_items, dtype=np.int64),
        item_price_levels=np.zeros(n_items, dtype=np.int64),
        n_price_levels=1,
        n_categories=1,
        exclude_indptr=indptr,
        exclude_indices=indices,
        item_popularity=np.ones(n_items),
    )


class TestScoreScratchFollowsTheRowBlock:
    """24 000 float32 items at k = 50: three shards of 8 000 columns."""

    n_items, k = 24_000, 50

    def ceiling(self, n_users):
        """Three block-sized score buffers (the accumulator, the second
        branch's scratch and the selection's working copy) plus the
        outputs: ids, scores and their copies at ``n_users x k``."""
        block = sharded.ROW_BLOCK * sharded.ITEM_BLOCK_SIZE * np.dtype(np.float32).itemsize
        return 3 * block + 4 * n_users * self.k * 8

    def test_recommend_all(self):
        """2 048 users: the parent scored a 1 024-row ``user_chunk`` in one
        block and peaked at 72.4 MiB."""
        users = 2_048
        index = serve_catalog(users, self.n_items)
        ceiling = self.ceiling(users)
        assert ceiling < 16 * MiB
        assert traced_peak(lambda: recommend_all(index, k=self.k)) <= ceiling

    def test_retrieval_topk(self):
        """256 users in one exact ``RetrievalEngine.topk`` call: the parent
        scored all 256 rows in one block and peaked at 19.8 MiB."""
        users = 256
        engine = RetrievalEngine(serve_catalog(users, self.n_items))
        ceiling = self.ceiling(users)
        assert ceiling < 10 * MiB
        assert traced_peak(lambda: engine.topk(np.arange(users), self.k)) <= ceiling


def test_a_catalog_off_the_column_multiple_is_not_copied():
    """One shard of 5 403 items runs as a 5 400-item body and an 8-item
    tail of the same table, so a warm call, and its scoring alone, peak
    within 64 KiB of the same call at 5 400 items.  A per-call copy of the
    padded table (1.4 MB here) moves the scoring peak; the call's peak is
    the selection's, which a copy freed before it does not reach."""
    users = np.arange(96)
    peaks = []
    for n_items in (5_400, 5_403):
        index = ShardedIndex(serve_catalog(96, n_items))
        buffers = sharded._Buffers()
        index.topk_chunk(users, 50, buffers=buffers)
        out, scratch = buffers.get(96, n_items, index.dtype)
        peaks.append((
            traced_peak(lambda: index.topk_chunk(users, 50, buffers=buffers)),
            traced_peak(lambda: score_branches(index.branches, users, out=out, scratch=scratch)),
        ))
    for at_5400, at_5403 in zip(*peaks):
        assert at_5403 <= at_5400 + 64 * 1024, peaks
