"""The k-means kernel: pinned bits, a plain-Lloyd differential, work counters.

``kmeans_pins.json`` was recorded at commit ``49bb1ec``, the parent of the
bound-pruned Lloyd passes, before any source edit, by running this file as a
script (``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python <this file>``), twice,
byte-equal: sha256 of ``kmeans`` and ``assign_labels`` on every ``CASES``
entry and of ``build_ivf``'s layout on the benchmark catalog.  A digest that
stops matching is a changed partition, not an expectation to re-record.
``plain_kmeans`` is the oracle, built from the module's own full passes.
"""

import hashlib
import importlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scoring import ScoreBranch, gemm_rows
from repro.serving.ann import ivf as ivf_module
from repro.serving.ann import pq as pq_module
from repro.serving.ann.ivf import build_ivf, combined_item_vectors
from repro.serving.ann.pq import build_pq_branch
from repro.serving.index import EmbeddingIndex

# the package re-exports the function `kmeans` over the submodule's name
kernel = importlib.import_module("repro.serving.ann.kmeans")

MB = 1 << 20


def ref_assign_labels(points, centroids):
    """Nearest centroid through one one-shot ``(n_points, n_clusters)`` table:
    the definition the chunked scratch table promises the bits of."""
    norms = np.einsum("ij,ij->i", points, points)
    cross = points @ centroids.T
    sq = np.maximum(norms[:, None] - 2.0 * cross + np.einsum("ij,ij->i", centroids, centroids), 0)
    labels = sq.argmin(axis=1)
    return labels, sq[np.arange(len(points)), labels]


def plain_kmeans(points, n_clusters, seed=0, iters=25, tol=0.0):
    """Lloyd with a full assignment pass and a full centroid update every
    iteration, and :func:`kernel.kmeans`' reseed and stopping rules."""
    n_clusters = min(int(n_clusters), len(points))
    norms = np.einsum("ij,ij->i", points, points)
    centroids = kernel._kmeanspp_init(points, norms, n_clusters, np.random.default_rng(seed))
    shift_floor = float(tol) * float(norms.mean()) if tol > 0 else 0.0
    labels = np.full(len(points), -1, dtype=np.int64)
    for _ in range(max(1, int(iters))):
        new, assigned = kernel.assign_labels(points, centroids, norms)
        counts = np.bincount(new, minlength=n_clusters)
        worst = iter(np.argsort(-assigned, kind="stable"))
        for cluster in np.flatnonzero(counts == 0):
            for point in worst:
                if counts[new[point]] > 1:
                    counts[new[point]] -= 1
                    counts[cluster] += 1
                    new[point] = cluster
                    break
        if np.array_equal(new, labels):
            break
        labels = new
        moved = kernel.cluster_sums(points, labels, n_clusters) / counts[:, None]
        shift = float(np.mean(np.sum((moved - centroids) ** 2, axis=1)))
        centroids = moved
        if shift_floor > 0.0 and shift <= shift_floor:
            break
    return centroids, labels


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def index_of(item_main, item_side, item_const, n_users=16):
    """A two-branch index (main factors; side factors + item constant)
    over the given item arrays; the user side is never read here."""
    n_items = item_main.shape[0]
    rng = np.random.default_rng(0)
    return EmbeddingIndex(
        [
            ScoreBranch(
                user=rng.normal(size=(n_users, item_main.shape[1])).astype(item_main.dtype),
                item=item_main,
            ),
            ScoreBranch(
                user=rng.normal(size=(n_users, item_side.shape[1])).astype(item_side.dtype),
                item=item_side,
                item_const=item_const,
            ),
        ],
        item_categories=np.zeros(n_items, dtype=np.int64),
        item_price_levels=np.zeros(n_items, dtype=np.int64),
        n_price_levels=1,
        n_categories=1,
        exclude_indptr=np.zeros(n_users + 1, dtype=np.int64),
        exclude_indices=np.zeros(0, dtype=np.int64),
        item_popularity=np.ones(n_items),
    )


def clustered_items(n_items, seed, dim=56, side_dim=8):
    """Float32 item arrays drawn the way the e2e benchmark's generator
    draws them: clustered main factors, small side factors, a constant."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(64, dim))
    item_main = (
        centers[rng.integers(64, size=n_items)] + 0.35 * rng.normal(size=(n_items, dim))
    ).astype(np.float32)
    item_side = (0.3 * rng.normal(size=(n_items, side_dim))).astype(np.float32)
    item_const = (0.1 * rng.normal(size=n_items)).astype(np.float32)
    return item_main, item_side, item_const


def normal(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def float32_derived(shape, seed):
    return normal(shape, seed).astype(np.float32).astype(np.float64)


def catalog_vectors(seed):
    """24 000 x 65 combined vectors, the shape ``build_ivf`` clusters."""
    return combined_item_vectors(index_of(*clustered_items(24_000, seed)).branches)


#: id -> (points factory, n_clusters, kmeans keyword arguments)
CASES = {
    "catalog-seed0": (lambda: catalog_vectors(0), 77, {}),
    "catalog-seed1": (lambda: catalog_vectors(1), 77, {}),
    "catalog-seed2": (lambda: catalog_vectors(2), 77, {}),
    "catalog-seed3": (lambda: catalog_vectors(3), 77, {}),
    "pq-24000x4x256-tol": (lambda: normal((24_000, 4), 1), 256, {"seed": 1, "tol": 1e-4}),
    "pq-24001x4x256-tol": (lambda: normal((24_001, 4), 1), 256, {"seed": 1, "tol": 1e-4}),
    "pq-24000x8x256": (lambda: normal((24_000, 8), 2), 256, {"seed": 2}),
    "odd-5003x7x33": (lambda: normal((5003, 7), 3), 33, {"seed": 3}),
    "small-999x65x77": (lambda: normal((999, 65), 4), 77, {"seed": 4}),
    "f64-general-6000x65x77": (lambda: normal((6000, 65), 5), 77, {"seed": 5}),
    "f32-derived-6000x65x77": (lambda: float32_derived((6000, 65), 5), 77, {"seed": 5}),
    # 10 distinct points x 5 copies into 45 clusters: every copy ties at
    # distance zero and argmin keeps the lowest id, so at most 10 clusters
    # are populated and the reseed loop must fill the other 35
    "reseed-duplicates-50x3x45": (
        lambda: np.repeat(normal((10, 3), 6), 5, axis=0), 45, {"seed": 6},
    ),
}


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def digest(array):
    array = np.ascontiguousarray(array)
    sha = hashlib.sha256(f"{array.dtype}{array.shape}".encode())
    sha.update(array.tobytes())
    return sha.hexdigest()


def case_digests(case):
    factory, n_clusters, kwargs = CASES[case]
    points = factory()
    centroids, labels = kernel.kmeans(points, n_clusters, **kwargs)
    arrays = (centroids, labels, *kernel.assign_labels(points, centroids))
    for name, array in zip(("centroids", "labels", "assign_labels", "assigned"), arrays):
        yield f"{case}/{name}", digest(array)


def build_digests():
    ann = build_ivf(index_of(*clustered_items(24_000, 0)))
    for name in ("list_items", "list_indptr", "centroids"):
        yield f"build_ivf/catalog-seed0/{name}", digest(getattr(ann, name))


def all_pins():
    for case in CASES:
        yield from case_digests(case)
    yield from build_digests()


with open(os.path.join(os.path.dirname(__file__), "kmeans_pins.json")) as _handle:
    PINS = json.load(_handle)


# ----------------------------------------------------------------------
# Pinned bits: kmeans / assign_labels / build_ivf
# ----------------------------------------------------------------------
class TestPinnedBits:
    def test_every_pin_is_checked(self):
        assert len(PINS) == 4 * len(CASES) + 3
        assert {name.split("/")[0] for name in PINS} == set(CASES) | {"build_ivf"}

    @pytest.mark.parametrize("case", [*CASES, "build_ivf"])
    def test_bits_match_the_parent(self, case):
        for name, sha in build_digests() if case == "build_ivf" else case_digests(case):
            assert sha == PINS[name], name


# ----------------------------------------------------------------------
# Differential: pruned kmeans against the plain-Lloyd oracle
# ----------------------------------------------------------------------
def drawn_points(kind, n, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":  # exact distance ties everywhere
        return rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    if kind == "duplicates":  # zero-distance ties: clusters go empty and reseed
        return rng.normal(size=(max(1, n // 6), d))[rng.integers(max(1, n // 6), size=n)]
    if kind == "clustered":
        return 4.0 * rng.normal(size=(8, d))[rng.integers(8, size=n)] + rng.normal(size=(n, d))
    return rng.normal(size=(n, d))


class TestKernelDifferential:
    def test_reseed_case_really_reseeds(self):
        factory, n_clusters, kwargs = CASES["reseed-duplicates-50x3x45"]
        points, rng = factory(), np.random.default_rng(kwargs["seed"])
        norms = np.einsum("ij,ij->i", points, points)
        seeds = kernel._kmeanspp_init(points, norms, n_clusters, rng)
        assert len(np.unique(kernel.assign_labels(points, seeds)[0])) <= 10
        assert len(np.unique(kernel.kmeans(points, n_clusters, **kwargs)[1])) == n_clusters

    def test_tol_case_really_stops_early(self):
        points = normal((24_000, 4), 1)
        early, _ = kernel.kmeans(points, 256, seed=1, iters=25, tol=1e-4)
        full, _ = kernel.kmeans(points, 256, seed=1, iters=25)
        assert not same_bytes(early, full)

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["normal", "integer", "duplicates", "clustered"]),
        n=st.integers(1, 600),
        d=st.integers(1, 70),
        n_clusters=st.integers(1, 60),
        seed=st.integers(0, 2**16),
        tol=st.sampled_from([0.0, 1e-4, 1e-2]),
        table_rows=st.one_of(st.none(), st.integers(1, 300)),
    )
    def test_kmeans_equals_plain_lloyd(self, kind, n, d, n_clusters, seed, tol, table_rows):
        points = drawn_points(kind, n, d, seed)
        with pytest.MonkeyPatch.context() as patch:
            if table_rows is not None:
                patch.setattr(kernel, "_ASSIGN_TABLE_BYTES", table_rows * n_clusters * 8)
            got = kernel.kmeans(points, n_clusters, seed=seed, tol=tol)
            want = plain_kmeans(points, n_clusters, seed=seed, tol=tol)
        for a, b in zip(got, want):
            assert same_bytes(a, b)

    @pytest.mark.parametrize(
        "dim, n_clusters",
        # long dots into few clusters: OpenBLAS's small-matrix kernel; over
        # 192 clusters, not a multiple of 8: height-dependent bits on AVX-512
        [(65, 77), (65, 9), (40, 27), (4, 256), (4, 300), (9, 1300)],
    )
    def test_gathered_rows_are_table_rows_where_probed(self, dim, n_clusters):
        points, centroids = normal((3000, dim), 14), normal((n_clusters, dim), 15)
        norms = np.einsum("ij,ij->i", points, points)
        table = kernel._assign_table(3000, n_clusters)
        second = np.empty(3000)
        labels, assigned = kernel._assign_into(table, points, centroids, norms, second)
        if not kernel._prunable(table, points, centroids):
            return  # kmeans runs full passes only on this shape
        gather = np.empty((table.shape[0], dim))
        first = gemm_rows(1, n_clusters)
        for m in [1, 5, 31, *range(first, first + 40), 200, 2999]:
            chosen = np.sort(np.random.default_rng(m).choice(3000, m, replace=False))
            got_second = np.empty(m)
            got = kernel._assign_into(table, points, centroids, norms, got_second, chosen, gather)
            for a, b in zip((*got, got_second), (labels, assigned, second)):
                assert same_bytes(a, b[chosen]), m

    @pytest.mark.parametrize(
        "shape, n_clusters, rows",
        [
            ((1500, 65), 77, 40),
            ((1500, 65), 77, 64),
            ((1500, 65), 77, 701),
            # short dot products, a few-row table: padded past the
            # small-matrix kernel like any other chunk
            ((1501, 9), 40, 3),
            ((1501, 9), 40, 7),
        ],
    )
    def test_table_height_does_not_change_a_bit(self, monkeypatch, shape, n_clusters, rows):
        points = normal(shape, 11)
        table = kernel._assign_table(shape[0], n_clusters)
        assert table.shape[0] == gemm_rows(shape[0], n_clusters)
        whole = kernel.kmeans(points, n_clusters, seed=2)
        whole += kernel.assign_labels(points, whole[0])
        monkeypatch.setattr(kernel, "_ASSIGN_TABLE_BYTES", rows * n_clusters * 8)
        assert kernel._assign_table(shape[0], n_clusters).shape == (
            gemm_rows(rows, n_clusters), n_clusters
        )
        chunked = kernel.kmeans(points, n_clusters, seed=2)
        chunked += kernel.assign_labels(points, chunked[0])
        for got, want in zip(chunked, whole):
            assert same_bytes(got, want)

    @pytest.mark.parametrize(
        "shape, n_clusters",
        [
            # one row, five rows, thirteen rows past a whole number of
            # tables: the short tail chunk is padded to a table's kernel
            ((1703, 65), 77),
            ((3409, 65), 77),
            ((1702 * 7 + 13, 65), 77),
            ((1025, 8), 256),
            ((512 * 9 + 2, 30), 256),
        ],
    )
    def test_no_short_tail_chunk(self, shape, n_clusters):
        points, centroids = normal(shape, 12), normal((n_clusters, shape[1]), 13)
        for got, want in zip(
            kernel.assign_labels(points, centroids), ref_assign_labels(points, centroids)
        ):
            assert same_bytes(got, want)

    def test_point_norms_argument_is_only_a_shortcut(self):
        points, centroids = normal((700, 6), 1), normal((9, 6), 2)
        with_norms = kernel.assign_labels(points, centroids, np.einsum("ij,ij->i", points, points))
        for got, want in zip(with_norms, kernel.assign_labels(points, centroids)):
            assert same_bytes(got, want)

    def test_unused_labels_give_zero_rows(self):
        points = normal((50, 4), 3)
        labels = np.random.default_rng(4).choice([0, 2, 5], size=50)
        sums = kernel.cluster_sums(points, labels, 7)
        scattered = np.zeros((7, 4))
        np.add.at(scattered, labels, points)
        assert same_bytes(sums, scattered)
        assert not sums[[1, 3, 4, 6]].any()


# ----------------------------------------------------------------------
# Differential: cluster sums against a row scatter
# ----------------------------------------------------------------------
def scatter_sums(points, labels, members, n_clusters):
    """The definition: ``np.add.at`` of every member row, in point order,
    into a zero table."""
    out = np.zeros((n_clusters, points.shape[1]))
    np.add.at(out, labels[members], points[members])
    return out


def summed_points(n, d, n_clusters, seed):
    """Heavy-tailed rows over 24 decades, some columns all ``-0.0`` and some
    rows zero, labelled so that some clusters are empty and some have one
    member."""
    rng = np.random.default_rng(seed)
    points = rng.standard_t(1.5, size=(n, d)) * 10.0 ** rng.integers(-12, 12, size=(n, 1))
    points[rng.random(n) < 0.05] = rng.choice([0.0, -0.0])
    points[:, rng.random(d) < 0.2] = -0.0
    used = rng.random(n_clusters) < 0.6
    used[0] = True
    labels = rng.choice(np.flatnonzero(used), size=n)
    singles = np.flatnonzero(~used)[: n // 4]  # one member each; the rest stay empty
    labels[rng.choice(n, size=len(singles), replace=False)] = singles
    return points, labels


class TestClusterSums:
    def test_a_one_column_cluster_is_not_a_pairwise_sum(self):
        # np.add.reduce sums one contiguous column pairwise: not a scatter
        points, labels = summed_points(2000, 1, 1, 3)
        pairwise = np.add.reduce(points, axis=0)
        assert not same_bytes(pairwise, scatter_sums(points, labels, labels >= 0, 1)[0])
        assert same_bytes(kernel.cluster_sums(points, labels, 1), scatter_sums(
            points, labels, labels >= 0, 1
        ))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 400),
        d=st.integers(1, 70),
        n_clusters=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        member_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        block_rows=st.one_of(st.none(), st.integers(1, 50)),
    )
    def test_sums_are_a_row_scatter(self, n, d, n_clusters, seed, member_share, block_rows):
        points, labels = summed_points(n, d, n_clusters, seed)
        members = np.random.default_rng(seed + 1).random(n) < member_share
        with pytest.MonkeyPatch.context() as patch:
            if block_rows is not None:  # many blocks: clusters carry across them
                patch.setattr(kernel, "_SUM_BLOCK_BYTES", block_rows * d * 8)
            whole = kernel.cluster_sums(points, labels, n_clusters)
            part = kernel._member_sums(points, labels, members, n_clusters)
        assert same_bytes(whole, scatter_sums(points, labels, labels >= 0, n_clusters))
        assert same_bytes(part, scatter_sums(points, labels, members, n_clusters))

    def test_only_a_block_of_rows_is_gathered(self):
        points = normal((24_000, 65), 0)
        labels = np.random.default_rng(1).integers(77, size=24_000)
        peak = peak_bytes(lambda: kernel.cluster_sums(points, labels, 77))
        assert peak <= kernel._SUM_BLOCK_BYTES + MB, f"{peak / MB:.1f} MB"


# ----------------------------------------------------------------------
# Differential: the builds that sit on the kernel
# ----------------------------------------------------------------------
def index_arrays(ann):
    """Every array a build derives from k-means, in a fixed order."""
    arrays = [ann.centroids, ann.list_indptr, ann.list_items]
    if ann.pq is not None:
        for branch in ann.pq:
            arrays += list(branch.codebooks) + [branch.codes]
        arrays += list(ann._pq_list_means)
    return arrays


def loop_means(item, list_items, list_indptr):
    """The per-list ``.mean(axis=0)`` loop the segment sum replaced."""
    perm_item = item[list_items]
    means = np.zeros((len(list_indptr) - 1, item.shape[1]))
    for lst in range(len(means)):
        lo, hi = int(list_indptr[lst]), int(list_indptr[lst + 1])
        if hi > lo:
            means[lst] = perm_item[lo:hi].mean(axis=0)
    return means


def loop_list_means(ann):
    return [
        loop_means(np.asarray(b.item, dtype=np.float64), ann.list_items, ann.list_indptr)
        for b in ann.index.branches
    ]


class TestBuildDifferential:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"pq": True},
            {"pq": True, "pq_rotation": True, "pq_centroids": 64},
        ],
        ids=["ivf", "pq", "opq"],
    )
    def test_seeded_build_is_unchanged(self, monkeypatch, kwargs):
        index = index_of(*clustered_items(4000, seed=21, dim=16, side_dim=4))
        built = build_ivf(index, seed=5, **kwargs)
        for module in (ivf_module, pq_module):
            monkeypatch.setattr(module, "kmeans", plain_kmeans)
        reference = build_ivf(index, seed=5, **kwargs)
        got, want = index_arrays(built), index_arrays(reference)
        assert len(got) == len(want)
        for position, (a, b) in enumerate(zip(got, want)):
            assert same_bytes(np.asarray(a), np.asarray(b)), f"array {position}"
        if built.pq is not None:
            for a, b in zip(built._pq_list_means, loop_list_means(built)):
                assert same_bytes(a, b)

    def test_duplicate_items_leave_no_list_empty(self):
        # 40 distinct items x 10 copies into 60 lists: copies tie at
        # distance zero and the lowest list id wins, so only k-means's
        # reseeding keeps 20 of the lists populated
        items = [np.repeat(a, 10, axis=0) for a in clustered_items(40, 2, dim=8, side_dim=4)]
        built = build_ivf(index_of(*items), n_lists=60, seed=0, pq=True, pq_centroids=16)
        assert (np.diff(built.list_indptr) > 0).all()
        for means, looped in zip(built._pq_list_means, loop_list_means(built)):
            assert same_bytes(means, looped)


def ref_combined_item_vectors(branches, start=0):
    """The previous ``combined_item_vectors``: a float64 copy per branch, then
    their ``hstack``."""
    parts = [np.asarray(b.item[start:], dtype=np.float64) for b in branches]
    const = None
    for branch in branches:
        if branch.item_const is not None:
            term = branch.weight * np.asarray(branch.item_const[start:], dtype=np.float64)
            const = term if const is None else const + term
    if const is not None:
        parts.append(const[:, None])
    return np.hstack(parts)


class TestCombinedItemVectors:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("start", [0, 1, 2999, 3000])
    @pytest.mark.parametrize("consts", [(), (1,), (0, 1)], ids=["none", "one", "two"])
    def test_equals_the_hstack_reference(self, dtype, start, consts):
        rng = np.random.default_rng(7)
        branches = [
            ScoreBranch(
                user=rng.normal(size=(4, dim)).astype(dtype),
                item=rng.normal(size=(3000, dim)).astype(dtype),
                item_const=rng.normal(size=3000).astype(dtype) if b in consts else None,
                weight=weight,
            )
            for b, (dim, weight) in enumerate([(16, 1.0), (4, 0.37), (1, 2.5)])
        ]
        got = combined_item_vectors(branches, start=start)
        assert got.shape == (3000 - start, 21 + bool(consts))
        assert same_bytes(got, ref_combined_item_vectors(branches, start=start))


# ----------------------------------------------------------------------
# Work counters: distance rows computed, tracemalloc peaks above the input
# ----------------------------------------------------------------------
def peak_bytes(fn):
    """Peak traced allocation while ``fn`` runs (inputs made before it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkCounters:
    # iters=3: the peak is set by the shapes, not by how long Lloyd runs

    def test_pruned_passes_compute_under_30_percent_of_the_rows(self, monkeypatch):
        # every assignment distance row goes through `_distance_rows`; the
        # plain oracle computes passes x n of them over the same passes
        rows, counted = [], kernel._distance_rows
        monkeypatch.setattr(
            kernel, "_distance_rows", lambda out, p, *a: rows.append(len(p)) or counted(out, p, *a)
        )
        for seed in range(4):
            points = catalog_vectors(seed)
            rows.clear()
            kernel.kmeans(points, 77)
            pruned, rows[:] = sum(rows), []
            plain_kmeans(points, 77)
            assert sum(rows) % len(points) == 0
            assert pruned <= 0.30 * sum(rows), f"seed {seed}: {pruned / sum(rows):.1%}"

    def test_kmeans_peak_is_a_few_megabytes(self):
        points = normal((24_000, 65), 0)
        peak = peak_bytes(lambda: kernel.kmeans(points, 77, seed=0, iters=3))
        assert peak <= 8 * MB, f"{peak / MB:.1f} MB"

    def test_kmeans_peak_barely_grows_with_points(self):
        small, large = normal((24_000, 65), 0), normal((48_000, 65), 0)
        grow = peak_bytes(lambda: kernel.kmeans(large, 77, seed=0, iters=3)) - peak_bytes(
            lambda: kernel.kmeans(small, 77, seed=0, iters=3)
        )
        assert grow <= 4 * MB, f"+{grow / MB:.1f} MB"

    def test_build_pq_branch_peak_is_bounded(self):
        item = normal((24_000, 56), 1)
        peak = peak_bytes(lambda: build_pq_branch(item, seed=0, iters=3))
        assert peak <= 16 * MB, f"{peak / MB:.1f} MB"

    def test_combined_item_vectors_peak_is_its_output(self):
        # the benchmark catalog: 24 000 x 65 float64 = 12.5 MB of output
        branches = index_of(*clustered_items(24_000, 0)).branches
        out_bytes = 24_000 * 65 * 8
        peak = peak_bytes(lambda: combined_item_vectors(branches))
        assert peak <= out_bytes + MB, f"{peak / MB:.1f} MB"
        # the reference also holds a float64 copy of every branch (12.3 MB)
        ref_peak = peak_bytes(lambda: ref_combined_item_vectors(branches))
        assert ref_peak > out_bytes + 8 * MB

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_combined_item_vectors_live_outside_the_malloc_heap(self):
        # Freeing a 16 MB array raises glibc's mmap threshold past the
        # 12.5 MB output, so an output taken from malloc lands in [heap].
        np.ones(2 * MB)
        out = combined_item_vectors(index_of(*clustered_items(24_000, 0)).branches)
        with open("/proc/self/maps") as maps:
            heap = [
                [int(end, 16) for end in line.split()[0].split("-")]
                for line in maps
                if line.rstrip().endswith("[heap]")
            ]
        assert not any(low <= out.ctypes.data < high for low, high in heap)
        out[:] = 1.0  # writable, like the np.empty it replaced
        assert out.flags.c_contiguous and out.sum() == out.size

    def test_combined_item_vectors_are_private_to_their_process(self, overwrite_in_forked_child):
        # A shared anonymous mapping let a forked child's writes reach the parent.
        out = combined_item_vectors(index_of(*clustered_items(2_000, 0)).branches)
        before = out.copy()
        assert overwrite_in_forked_child(out) == 0
        np.testing.assert_array_equal(out, before)


if __name__ == "__main__":
    print(json.dumps(dict(all_pins()), indent=4))
