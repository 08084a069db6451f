"""Delta IVF builds: parity, staleness escalation.

The headline invariant: a delta-built index's full-probe exact-scorer
search is bit-identical to exact ranking on the grown catalog — appends
may never disturb the (ids ascending within lists) layout contract.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.base import ScoreBranch
from repro.eval.ann import ann_recall_at_k, exact_rankings
from repro.lifecycle.delta import (
    DeltaConfig,
    DeltaMismatch,
    DeltaStats,
    DeltaUnsupported,
    delta_build,
)
from repro.lifecycle.foldin import fold_in
from repro.lifecycle.controller import simulate_events
from repro.serving.ann.ivf import build_ivf, combined_item_vectors
from repro.serving.ann.kmeans import assign_labels
from repro.serving.index import EmbeddingIndex


def grow(index, count, seed, start_seq=0):
    events = simulate_events(
        index.n_users, index.n_items, count, seed=seed, start_seq=start_seq,
        new_item_rate=0.2, new_user_rate=0.1, n_categories=index.n_categories,
    )
    return fold_in(index, events)[0], events


class TestValidation:
    def test_pq_companion_refused(self, index):
        ann_pq = build_ivf(index, nprobe=7, seed=0, pq=True, pq_subspace_dim=3)
        grown, _ = grow(index, 40, seed=1)
        with pytest.raises(DeltaUnsupported, match="PQ"):
            delta_build(ann_pq, grown, DeltaConfig())

    def test_shrunk_catalog_refused(self, index, ann):
        grown, _ = grow(index, 40, seed=1)
        bigger = build_ivf(grown, nprobe=7, seed=0)
        with pytest.raises(DeltaMismatch, match="fewer"):
            delta_build(bigger, index, DeltaConfig())

    def test_mutated_frozen_rows_refused(self, index, ann):
        grown, _ = grow(index, 40, seed=1)
        tampered = grown.branches[0].item
        tampered[0, 0] += 1.0
        try:
            with pytest.raises(DeltaMismatch, match="frozen"):
                delta_build(ann, grown, DeltaConfig())
        finally:
            tampered[0, 0] -= 1.0


class TestParityAndCodes:
    def test_full_probe_parity_on_grown_catalog(self, index, ann):
        grown, _ = grow(index, 60, seed=2)
        new_ann, stats = delta_build(ann, grown, DeltaConfig())
        assert stats.n_new_items > 0 and not stats.reclustered
        users = np.arange(grown.n_users)
        k = 10
        exact = exact_rankings(grown, users, k)
        ids, _ = new_ann.search(
            users, k, nprobe=new_ann.n_lists, scorer="exact",
            exclude_csr=(grown.exclude_indptr, grown.exclude_indices),
        )
        for row, user in enumerate(users):
            assert np.array_equal(ids[row], exact[int(user)]), f"user {user}"

    def test_ids_ascend_within_every_list(self, index, ann):
        grown, _ = grow(index, 60, seed=2)
        new_ann, _ = delta_build(ann, grown, DeltaConfig())
        for lst in range(new_ann.n_lists):
            lo, hi = new_ann.list_indptr[lst], new_ann.list_indptr[lst + 1]
            ids = new_ann.list_items[lo:hi]
            assert np.all(np.diff(ids) > 0), f"list {lst} not ascending"
        assert sorted(new_ann.list_items) == list(range(grown.n_items))

    def test_recall_holds_across_three_consecutive_deltas(self, index, ann):
        # The acceptance criterion, at test scale: three delta rounds, no
        # full rebuild, recall@50 at the serving operating point >= 0.95.
        current_index, current_ann = index, ann
        appended, seq = 0, 0
        for round_id in range(3):
            grown, events = grow(current_index, 40, seed=5 + round_id, start_seq=seq)
            seq += len(events)
            current_ann, stats = delta_build(
                current_ann, grown, DeltaConfig(appended_since_recluster=appended)
            )
            appended = stats.appended_since_recluster
            assert not stats.reclustered
            current_index = grown
            users = np.arange(current_index.n_users)
            k = 50
            exact = exact_rankings(current_index, users, k)
            ids, _ = current_ann.search(
                users, k,
                exclude_csr=(current_index.exclude_indptr,
                             current_index.exclude_indices),
            )
            approx = {int(u): ids[r] for r, u in enumerate(users)}
            recall = ann_recall_at_k(exact, approx, k)
            assert recall >= 0.95, f"round {round_id}: recall@50 {recall:.4f}"


def two_branch_index(item_main, item_side, item_const, n_users=8):
    """A float32 index over the given item arrays (users are never read)."""
    rng = np.random.default_rng(0)
    n_items = item_main.shape[0]
    branches = [
        ScoreBranch(
            user=rng.normal(size=(n_users, item_main.shape[1])).astype(np.float32),
            item=item_main,
        ),
        ScoreBranch(
            user=rng.normal(size=(n_users, item_side.shape[1])).astype(np.float32),
            item=item_side,
            item_const=item_const,
        ),
    ]
    return EmbeddingIndex(
        branches,
        item_categories=np.zeros(n_items, dtype=np.int64),
        item_price_levels=np.zeros(n_items, dtype=np.int64),
        n_price_levels=1,
        n_categories=1,
        exclude_indptr=np.zeros(n_users + 1, dtype=np.int64),
        exclude_indices=np.zeros(0, dtype=np.int64),
        item_popularity=np.ones(n_items),
    )


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNewRowsOnly:
    """The assignment converts rows ``n_old:`` to float64, not the catalog."""

    def test_labels_equal_the_whole_catalog_expression(self, index, ann):
        grown, _ = grow(index, 60, seed=2)
        new_ann, stats = delta_build(ann, grown, DeltaConfig())
        n_old = index.n_items
        assert stats.n_new_items > 0
        whole = combined_item_vectors(grown.branches)
        tail = combined_item_vectors(grown.branches, start=n_old)
        assert tail.tobytes() == whole[n_old:].tobytes()
        labels, _ = assign_labels(whole[n_old:], ann.centroids)
        list_of = np.empty(grown.n_items, dtype=np.int64)
        list_of[new_ann.list_items] = np.repeat(
            np.arange(new_ann.n_lists), np.diff(new_ann.list_indptr)
        )
        assert np.array_equal(list_of[n_old:], labels)

    def test_allocation_does_not_follow_the_old_catalog(self):
        n_new, peaks, step_peaks = 30, {}, {}
        for n_old in (6000, 24_000):
            rng = np.random.default_rng(3)
            # 56 + 8 factor dims + the constant: 65 combined dims
            items = [
                rng.normal(size=shape).astype(np.float32)
                for shape in ((n_old + n_new, 56), (n_old + n_new, 8), (n_old + n_new,))
            ]
            grown = two_branch_index(*items)
            old = two_branch_index(*(array[:n_old] for array in items))
            prev = build_ivf(old, n_lists=40, seed=1, iters=2)
            step_peaks[n_old] = traced_peak(
                lambda: assign_labels(
                    combined_item_vectors(grown.branches, start=n_old), prev.centroids
                )
            )
            peaks[n_old] = traced_peak(lambda: delta_build(prev, grown))
        # the assignment step: the same ~40 KB whatever the catalog size
        # (the whole-catalog expression is 3 MB and 12.5 MB here)
        assert max(step_peaks.values()) < 64 * 1024
        assert abs(step_peaks[24_000] - step_peaks[6000]) < 1024
        # the whole delta build still copies the permuted factors (~400 B an
        # item), but no longer a float64 combined row (8 x 65 B) on top
        per_old_item = (peaks[24_000] - peaks[6000]) / 18_000
        assert per_old_item < 8 * 65, f"{per_old_item:.0f} B per old item"


class TestStaleness:
    def test_accounting_accumulates(self, index, ann):
        grown, _ = grow(index, 60, seed=2)
        _, stats = delta_build(
            ann, grown, DeltaConfig(appended_since_recluster=7)
        )
        assert stats.appended_since_recluster == 7 + stats.n_new_items
        assert stats.staleness == pytest.approx(
            stats.appended_since_recluster / grown.n_items
        )

    def test_threshold_triggers_recluster(self, index, ann):
        grown, _ = grow(index, 60, seed=2)
        new_ann, stats = delta_build(
            ann,
            grown,
            DeltaConfig(staleness_threshold=0.01, appended_since_recluster=5),
        )
        assert stats.reclustered
        assert stats.appended_since_recluster == 0
        assert stats.staleness == 0.0
        # The rebuild re-derives its layout from the grown catalog.
        assert new_ann.n_items == grown.n_items

    def test_recluster_keeps_the_operating_point(self, index):
        prev = build_ivf(index, nprobe=7, seed=0, rerank_factor=3)
        grown, _ = grow(index, 60, seed=2)
        new_ann, stats = delta_build(prev, grown, DeltaConfig(staleness_threshold=0.0))
        assert stats.reclustered
        assert new_ann.n_lists >= 7
        assert (new_ann.nprobe, new_ann.rerank_factor) == (7, 3)

    def test_recluster_clips_nprobe_to_the_new_lists(self, index):
        prev = build_ivf(index, nprobe=7, seed=0)
        grown, _ = grow(index, 60, seed=2)
        recluster = DeltaConfig(staleness_threshold=0.0)
        new_ann, _ = delta_build(prev, grown, recluster)
        fewer = build_ivf(index, n_lists=3, nprobe=3, seed=0)
        wider = build_ivf(index, n_lists=new_ann.n_lists + 4, nprobe=new_ann.n_lists + 2, seed=0)
        assert delta_build(fewer, grown, recluster)[0].nprobe == 3
        assert delta_build(wider, grown, recluster)[0].nprobe == new_ann.n_lists

    def test_no_new_items_is_a_cheap_no_op_layout(self, index, ann):
        events = simulate_events(
            index.n_users, index.n_items, 30, seed=4,
            new_item_rate=0.0, new_user_rate=0.0, n_categories=index.n_categories,
        )
        grown = fold_in(index, events)[0]
        new_ann, stats = delta_build(ann, grown, DeltaConfig())
        assert stats.n_new_items == 0
        assert np.array_equal(new_ann.list_items, ann.list_items)
        assert np.array_equal(new_ann.list_indptr, ann.list_indptr)


class TestDeterminism:
    def test_same_inputs_same_layout(self, index, ann):
        grown, _ = grow(index, 50, seed=6)
        a, _ = delta_build(ann, grown, DeltaConfig())
        b, _ = delta_build(ann, grown, DeltaConfig())
        assert np.array_equal(a.list_items, b.list_items)
        assert np.array_equal(a.list_indptr, b.list_indptr)
        assert np.array_equal(a.centroids, b.centroids)
