"""What a plain IVF index holds, and what it shares with its callers.

A plain :class:`IVFIndex` keeps no item factors of its own: the fine stage
gathers each probed list's rows from the source index into scratch that
belongs to one ``search`` call.  These tests hold it to that — in traced
bytes after a build, a load and a delta build, in its memory report, and under
concurrent searches that would corrupt each other's answers through any
shared buffer — and hold its constructor to a list layout that really is a
permutation of the catalog, which is what makes the clip-mode gathers safe.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from benchmarks.e2e.inputs import clustered_index
from repro.lifecycle import simulate_events
from repro.lifecycle.delta import delta_build
from repro.lifecycle.foldin import fold_in
from repro.serving.ann import IVFIndex, build_ivf

#: traced bytes an index may hold beyond its reported structure: its own
#: Python objects, never an array of catalog size
SLACK_BYTES = 64 << 10


@pytest.fixture(scope="module")
def catalog():
    return clustered_index(n_users=300, n_items=6000, seed=0)


def payload_bytes(index):
    return sum(
        b.item.nbytes + (0 if b.item_const is None else b.item_const.nbytes)
        for b in index.branches
    )


def traced_bytes_of(make):
    """``(object, bytes)``: what ``make()`` returns and the traced bytes
    still allocated once it has returned (the object kept alive)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestFootprint:
    @pytest.mark.parametrize("pq", [False, True])
    def test_a_built_index_holds_only_its_structure(self, catalog, pq):
        ann, held = traced_bytes_of(lambda: build_ivf(catalog, seed=0, pq=pq))
        assert payload_bytes(catalog) > 4 * SLACK_BYTES  # the bound can tell
        assert held <= ann._structure_bytes() + SLACK_BYTES

    @pytest.mark.parametrize("pq", [False, True])
    def test_a_loaded_index_holds_only_its_structure(self, catalog, pq, tmp_path):
        path = build_ivf(catalog, seed=0, pq=pq).save(str(tmp_path / "ann"))
        ann, held = traced_bytes_of(lambda: IVFIndex.load(path, catalog))
        assert held <= ann._structure_bytes() + SLACK_BYTES

    def test_a_delta_built_index_holds_only_its_structure(self, catalog):
        events = simulate_events(
            catalog.n_users, catalog.n_items, 400, seed=1,
            new_item_rate=0.2, new_user_rate=0.0, n_categories=catalog.n_categories,
        )
        grown = fold_in(catalog, events)[0]
        prev = build_ivf(catalog, seed=0)
        ann, held = traced_bytes_of(lambda: delta_build(prev, grown)[0])
        assert ann.n_items > catalog.n_items
        assert held <= ann._structure_bytes() + SLACK_BYTES

    @pytest.mark.parametrize("pq", [False, True])
    def test_memory_report_counts_what_the_index_owns(self, catalog, pq):
        ann = build_ivf(catalog, seed=0, pq=pq)
        report = ann.memory_report()
        assert report["bytes_total"] == ann._structure_bytes()
        assert report["tiers"] == {"hot": report["bytes_total"], "cold": 0}


class TestConcurrentSearch:
    @pytest.mark.parametrize("pq", [False, True])
    def test_eight_threads_get_the_serial_answers(self, catalog, pq):
        """Eight threads search one index at once, with exclusions and a
        filter mask, under a 1 µs switch interval that forces switches
        inside the fine loop: per-call scratch means no thread can see
        another's gathered rows."""
        ann = build_ivf(catalog, seed=0, pq=pq)
        exclude = (catalog.exclude_indptr, catalog.exclude_indices)
        mask = np.arange(catalog.n_items) % 5 != 0
        batches = [np.arange(start, start + 24) for start in range(0, 192, 24)]

        def answer(users):
            return ann.search(users, 20, exclude_csr=exclude, candidate_mask=mask)

        expected = [answer(users) for users in batches]
        got = [[] for _ in batches]
        start = threading.Barrier(len(batches))

        def worker(slot):
            start.wait(timeout=60)
            for _ in range(3):
                got[slot].append(answer(batches[slot]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (want_ids, want_scores), answers in zip(expected, got):
            assert len(answers) == 3  # a worker that raised leaves fewer
            for ids, scores in answers:
                np.testing.assert_array_equal(ids, want_ids)
                assert scores.tobytes() == want_scores.tobytes()


class TestListLayout:
    @pytest.fixture(scope="class")
    def built(self, catalog):
        return build_ivf(catalog, seed=0)

    def rebuilt(self, built, list_items, list_indptr=None):
        return IVFIndex(
            built.index,
            centroids=built.centroids,
            list_indptr=built.list_indptr if list_indptr is None else list_indptr,
            list_items=list_items,
            nprobe=built.nprobe,
        )

    def test_the_built_layout_is_accepted(self, built):
        assert self.rebuilt(built, built.list_items.copy()).n_lists == built.n_lists

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda items: items.__setitem__(1, items[0]), id="duplicate"),
            pytest.param(lambda items: items.__setitem__(3, -1), id="negative"),
            pytest.param(lambda items: items.__setitem__(5, len(items)), id="out-of-range"),
        ],
    )
    def test_a_layout_that_is_not_a_permutation_is_refused(self, built, edit):
        items = built.list_items.copy()
        edit(items)
        with pytest.raises(ValueError, match="permutation"):
            self.rebuilt(built, items)

    def test_list_bounds_must_cover_the_catalog(self, built):
        indptr = built.list_indptr.copy()
        indptr[-1] -= 1
        with pytest.raises(ValueError, match="list_indptr"):
            self.rebuilt(built, built.list_items.copy(), indptr)
        indptr = built.list_indptr.copy()
        indptr[1], indptr[2] = indptr[2], indptr[1]
        with pytest.raises(ValueError, match="list_indptr"):
            self.rebuilt(built, built.list_items.copy(), indptr)
