"""The k-means kernel against the kernel it replaced, bit for bit.

``ref_*`` below are verbatim copies of the previous kernel — the one-shot
``(n_points, n_clusters)`` distance table and the ``np.add.at`` centroid
update — kept here as the reference.  Every comparison is on ``tobytes()``:
the fixed scratch table and the one-hot product promise the *same bits*,
not close ones.  The memory ceilings at the bottom are ``tracemalloc``
peaks, exact functions of (code, shape), and fail on the reference kernel.
"""

import importlib
import tracemalloc

import numpy as np
import pytest

from repro.core.base import ScoreBranch
from repro.serving.ann import ivf as ivf_module
from repro.serving.ann import pq as pq_module
from repro.serving.ann.ivf import build_ivf, combined_item_vectors
from repro.serving.ann.pq import build_pq_branch
from repro.serving.index import EmbeddingIndex

# the package re-exports the function `kmeans` over the submodule's name
kernel = importlib.import_module("repro.serving.ann.kmeans")

MB = 1 << 20


# ----------------------------------------------------------------------
# Reference kernel (verbatim from the parent of the fixed-table rewrite)
# ----------------------------------------------------------------------
_REF_ASSIGN_CHUNK_ENTRIES = 16_000_000


def ref_kmeanspp_init(points, n_clusters, rng):
    n = points.shape[0]
    centroids = np.empty((n_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    point_norms = np.einsum("ij,ij->i", points, points)
    closest = ref_seed_distances(points, point_norms, centroids[0:1])
    for i in range(1, n_clusters):
        total = closest.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[i] = points[pick]
        np.minimum(
            closest, ref_seed_distances(points, point_norms, centroids[i : i + 1]), out=closest
        )
    return centroids


def ref_seed_distances(points, point_norms, centroid):
    cross = (points @ centroid.T)[:, 0]
    sq = point_norms - 2.0 * cross + np.einsum("ij,ij->i", centroid, centroid)[0]
    return np.maximum(sq, 0.0)


def ref_assign_labels(points, centroids, point_norms=None):
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    n = points.shape[0]
    n_clusters = centroids.shape[0]
    labels = np.empty(n, dtype=np.int64)
    assigned = np.empty(n, dtype=np.float64)
    chunk = max(1, _REF_ASSIGN_CHUNK_ENTRIES // max(n_clusters, 1))
    if point_norms is None:
        point_norms = np.einsum("ij,ij->i", points, points)
    centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        cross = points[start:stop] @ centroids.T
        sq = np.maximum(
            point_norms[start:stop, None] - 2.0 * cross + centroid_norms[None, :], 0.0
        )
        rows = sq.argmin(axis=1)
        labels[start:stop] = rows
        assigned[start:stop] = sq[np.arange(stop - start), rows]
    return labels, assigned


def ref_cluster_sums(points, labels, n_clusters):
    sums = np.zeros((n_clusters, points.shape[1]), dtype=np.float64)
    np.add.at(sums, labels, points)
    return sums


def ref_kmeans(points, n_clusters, seed=0, iters=25, tol=0.0):
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    n_clusters = min(int(n_clusters), n)
    rng = np.random.default_rng(seed)

    centroids = ref_kmeanspp_init(points, n_clusters, rng)
    point_norms = np.einsum("ij,ij->i", points, points)
    shift_floor = float(tol) * float(point_norms.mean()) if tol > 0 else 0.0
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max(1, int(iters))):
        new_labels, assigned = ref_assign_labels(points, centroids, point_norms)
        counts = np.bincount(new_labels, minlength=n_clusters)
        empty = np.flatnonzero(counts == 0)
        if len(empty):
            worst = np.argsort(-assigned, kind="stable")
            pointer = 0
            for cluster in empty:
                while pointer < n:
                    point = worst[pointer]
                    pointer += 1
                    donor = new_labels[point]
                    if counts[donor] > 1:
                        counts[donor] -= 1
                        counts[cluster] += 1
                        new_labels[point] = cluster
                        break

        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sums = np.zeros((n_clusters, points.shape[1]), dtype=np.float64)
        np.add.at(sums, labels, points)
        new_centroids = sums / counts[:, None]
        if shift_floor > 0.0:
            shift = float(np.mean(np.sum((new_centroids - centroids) ** 2, axis=1)))
            centroids = new_centroids
            if shift <= shift_floor:
                break
        else:
            centroids = new_centroids
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


# ----------------------------------------------------------------------
# Differential: kmeans / assign_labels / cluster_sums
# ----------------------------------------------------------------------
class TestKernelDifferential:
    @pytest.mark.parametrize("case", list(CASES))
    def test_kmeans_matches_reference_bytes(self, case):
        factory, n_clusters, kwargs = CASES[case]
        points = factory()
        ref_centroids, ref_labels = ref_kmeans(points, n_clusters, **kwargs)
        centroids, labels = kernel.kmeans(points, n_clusters, **kwargs)
        assert same_bytes(centroids, ref_centroids)
        assert same_bytes(labels, ref_labels)
        for got, want in zip(
            kernel.assign_labels(points, centroids), ref_assign_labels(points, ref_centroids)
        ):
            assert same_bytes(got, want)

    def test_reseed_case_really_reseeds(self):
        factory, n_clusters, kwargs = CASES["reseed-duplicates-50x3x45"]
        points = factory()
        seeds = ref_kmeanspp_init(points, n_clusters, np.random.default_rng(kwargs["seed"]))
        labels, _ = kernel.assign_labels(points, seeds)
        assert len(np.unique(labels)) <= 10
        _, final = kernel.kmeans(points, n_clusters, **kwargs)
        assert len(np.unique(final)) == n_clusters

    def test_tol_case_really_stops_early(self):
        points = normal((24_000, 4), 1)
        early, _ = kernel.kmeans(points, 256, seed=1, iters=25, tol=1e-4)
        full, _ = kernel.kmeans(points, 256, seed=1, iters=25)
        assert not same_bytes(early, full)

    @pytest.mark.parametrize(
        "shape, n_clusters, rows",
        [
            ((1500, 65), 77, 40),
            ((1500, 65), 77, 64),
            ((1500, 65), 77, 701),
            # short dot products: even the small-matrix kernels a few-row
            # chunk is routed to accumulate them in the same order
            ((1501, 9), 40, 3),
            ((1501, 9), 40, 7),
        ],
    )
    def test_table_height_does_not_change_a_bit(self, monkeypatch, shape, n_clusters, rows):
        points = normal(shape, 11)
        assert kernel._assign_table(shape[0], n_clusters).shape[0] == shape[0]
        whole = kernel.kmeans(points, n_clusters, seed=2)
        whole += kernel.assign_labels(points, whole[0])
        monkeypatch.setattr(kernel, "_ASSIGN_TABLE_BYTES", rows * n_clusters * 8)
        assert kernel._assign_table(shape[0], n_clusters).shape == (rows, n_clusters)
        chunked = kernel.kmeans(points, n_clusters, seed=2)
        chunked += kernel.assign_labels(points, chunked[0])
        for got, want in zip(chunked, whole):
            assert same_bytes(got, want)

    @pytest.mark.parametrize(
        "shape, n_clusters",
        [
            # one row, five rows, thirteen rows past a whole number of
            # tables: a short tail chunk would leave the blocked GEMM
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
        norms = np.einsum("ij,ij->i", points, points)
        for got, want in zip(
            kernel.assign_labels(points, centroids, norms),
            ref_assign_labels(points, centroids),
        ):
            assert same_bytes(got, want)

    @pytest.mark.parametrize("factory", [normal, float32_derived])
    def test_onehot_product_equals_row_scatter(self, factory):
        # sparse product checked exactly against its dense reference
        points = factory((24_000, 65), 8)
        labels = np.random.default_rng(9).integers(77, size=24_000)
        assert same_bytes(
            kernel.cluster_sums(points, labels, 77), ref_cluster_sums(points, labels, 77)
        )

    def test_sorted_reduceat_is_not_the_same_bits(self):
        # why the update is a sparse product: the other vectorised segment
        # sum only agrees on float32-derived data
        points = normal((24_000, 65), 8)
        labels = np.random.default_rng(9).integers(77, size=24_000)
        order = np.argsort(labels, kind="stable")
        starts = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=77))[:-1]])
        reduced = np.add.reduceat(points[order], starts, axis=0)
        assert not same_bytes(reduced, ref_cluster_sums(points, labels, 77))

    def test_unused_labels_give_zero_rows(self):
        points = normal((50, 4), 3)
        labels = np.random.default_rng(4).choice([0, 2, 5], size=50)
        sums = kernel.cluster_sums(points, labels, 7)
        assert sums.shape == (7, 4)
        assert same_bytes(sums, ref_cluster_sums(points, labels, 7))
        assert not sums[[1, 3, 4, 6]].any()


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


@pytest.fixture
def reference_kernel(monkeypatch):
    """Swap the reference kernel in under ``build_ivf`` / ``build_pq_branch``."""

    def install():
        for module in (ivf_module, pq_module):
            monkeypatch.setattr(module, "kmeans", ref_kmeans)
            monkeypatch.setattr(module, "assign_labels", ref_assign_labels)
        monkeypatch.setattr(ivf_module, "cluster_sums", ref_cluster_sums)

    return install


class TestBuildDifferential:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"train_sample": 1500},
            {"pq": True},
            {"pq": True, "train_sample": 1500, "tol": 1e-4},
            {"pq": True, "pq_rotation": True, "train_sample": 1000, "pq_centroids": 64},
        ],
        ids=["ivf", "ivf-sampled", "pq", "pq-sampled", "opq-sampled"],
    )
    def test_seeded_build_is_unchanged(self, reference_kernel, kwargs):
        index = index_of(*clustered_items(4000, seed=21, dim=16, side_dim=4))
        built = build_ivf(index, seed=5, **kwargs)
        reference_kernel()
        reference = build_ivf(index, seed=5, **kwargs)
        got, want = index_arrays(built), index_arrays(reference)
        assert len(got) == len(want)
        for position, (a, b) in enumerate(zip(got, want)):
            assert same_bytes(np.asarray(a), np.asarray(b)), f"array {position}"
        if built.pq is not None:
            for a, b in zip(built._pq_list_means, loop_list_means(built)):
                assert same_bytes(a, b)

    def test_empty_list_under_sampled_training_has_zero_mean(self):
        # 40 distinct items x 10 copies into 60 lists: copies tie at
        # distance zero and the lowest list id wins, so lists go empty
        items = [np.repeat(a, 10, axis=0) for a in clustered_items(40, 2, dim=8, side_dim=4)]
        built = build_ivf(
            index_of(*items), n_lists=60, seed=0, pq=True, pq_centroids=16, train_sample=200
        )
        sizes = np.diff(built.list_indptr)
        assert (sizes == 0).any(), "case no longer produces an empty list"
        for means, looped in zip(built._pq_list_means, loop_list_means(built)):
            assert same_bytes(means, looped)
            assert not means[sizes == 0].any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_list_means_equal_the_mean_loop_at_benchmark_shape(self, seed):
        rng = np.random.default_rng(seed)
        item = rng.normal(size=(24_000, 56))
        labels = rng.integers(77, size=24_000)
        counts = np.bincount(labels, minlength=77)
        perm = np.lexsort((np.arange(24_000), labels))
        indptr = np.concatenate([[0], np.cumsum(counts)])
        assert same_bytes(
            kernel.cluster_sums(item, labels, 77) / counts[:, None],
            loop_means(item, perm, indptr),
        )


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
# Work counters: tracemalloc peaks above the input
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

    def test_kmeans_peak_is_a_few_megabytes(self):
        points = normal((24_000, 65), 0)
        peak = peak_bytes(lambda: kernel.kmeans(points, 77, seed=0, iters=3))
        assert peak <= 8 * MB, f"{peak / MB:.1f} MB"
        # ... and so is the reference's three live 14.8 MB temporaries
        ref_peak = peak_bytes(lambda: ref_kmeans(points, 77, seed=0, iters=3))
        assert ref_peak > 8 * MB

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
