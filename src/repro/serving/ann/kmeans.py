"""Pure-NumPy k-means, the coarse quantizer behind :class:`IVFIndex`.

Lloyd's algorithm with k-means++ seeding, run entirely in float64 for
stable centroid updates regardless of the index precision.  Everything is
deterministic given ``seed``: initialization draws from one
``default_rng`` stream, assignment ties break toward the lowest cluster
id (``argmin``), and empty clusters are reseeded to the point currently
worst-served by its centroid — so rebuilding an IVF index from the same
embeddings always yields the same partition.

This is an offline, build-time kernel, but every serve or refresh
deployment starts with it, so its cost is the set-up cost.  Two things
keep it down.  A whole :func:`kmeans` run fills **one** scratch distance
table of fixed byte size (``_ASSIGN_TABLE_BYTES``) chunk after chunk, in
place — a fresh ``(n_points, n_clusters)`` table per pass is mostly page
faults, and three of them alive at once was the build's memory peak.
And the centroid update is a one-hot sparse product
(:func:`cluster_sums`), not an unbuffered row scatter (``ufunc.at``).
Both keep the floating-point operations and their order per output
element, so centroids, labels and distances are the bits the one-shot
table and the scatter produced (``tests/serving/test_kmeans_kernel.py``
keeps those as the reference).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

#: byte size of the one float64 (rows x n_clusters) distance table an
#: assignment fills chunk after chunk.  Reused, so it stays in cache
#: instead of faulting in fresh pages each pass; assignment time is flat
#: from 256 KB to 4 MB on both the IVF (77 centroids x 65 dims) and the
#: PQ (256 x 4) shape, hence a constant and not an argument.
_ASSIGN_TABLE_BYTES = 1 << 20


def _kmeanspp_init(
    points: np.ndarray, point_norms: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling.

    One running min-distance array is maintained across seeds: each new
    centroid contributes a single ``points @ c`` pass folded in with
    ``np.minimum`` — the per-seed cost is one matmul, not a full
    distance-table rebuild against every chosen centroid.
    """
    n = points.shape[0]
    centroids = np.empty((n_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = _seed_distances(points, point_norms, centroids[0:1])
    for i in range(1, n_clusters):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with a centroid; any choice works.
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[i] = points[pick]
        np.minimum(closest, _seed_distances(points, point_norms, centroids[i : i + 1]), out=closest)
    return centroids


def _seed_distances(
    points: np.ndarray, point_norms: np.ndarray, centroid: np.ndarray
) -> np.ndarray:
    """Squared distances to one ``(1, dim)`` centroid, reusing point norms.

    The ``|x|^2 - 2 x.c + |c|^2`` expansion through an ``(n, 1)`` matmul,
    clipped at zero so cancellation never yields a negative weight; the
    matmul shape and evaluation order are part of the seeded result.
    """
    cross = (points @ centroid.T)[:, 0]
    sq = point_norms - 2.0 * cross + np.einsum("ij,ij->i", centroid, centroid)[0]
    return np.maximum(sq, 0.0)


def _assign_table(n_points: int, n_clusters: int) -> np.ndarray:
    """The scratch table :func:`_assign_into` fills: as many rows as fit in
    ``_ASSIGN_TABLE_BYTES`` (at least one, no more than ``n_points``)."""
    rows = max(1, _ASSIGN_TABLE_BYTES // (8 * max(n_clusters, 1)))
    return np.empty((max(1, min(rows, n_points)), n_clusters), dtype=np.float64)


def _assign_into(
    table: np.ndarray,
    points: np.ndarray,
    centroids: np.ndarray,
    point_norms: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`assign_labels` through a caller-owned scratch ``table``.

    Each chunk of rows is one matmul into the table and four in-place
    elementwise passes — ``max(|x|^2 - 2 x.c + |c|^2, 0)`` evaluated in
    that order — so nothing the size of the table is allocated per chunk
    or per call.

    The rows are cut into the fewest chunks that fit the table, of
    near-equal height, so no chunk is a short tail.  That is for the bits,
    not the speed: BLAS sends a one-row product through GEMV and a product
    under ~80k multiply-adds through small-matrix kernels, both of which
    accumulate a long dot product in another order than the blocked GEMM
    — a 5-row tail would get last bits its rows do not get inside a big
    product.  Every chunk being at least half a table keeps each one, and
    the one-shot product it stands for, on the same kernel.
    """
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    assigned = np.empty(n, dtype=np.float64)
    centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
    n_chunks = -(-n // table.shape[0])
    bounds = np.arange(n_chunks + 1) * n // max(n_chunks, 1)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        sq = table[: stop - start]
        np.matmul(points[start:stop], centroids.T, out=sq)
        np.multiply(sq, 2.0, out=sq)
        np.subtract(point_norms[start:stop, None], sq, out=sq)
        np.add(sq, centroid_norms[None, :], out=sq)
        np.maximum(sq, 0.0, out=sq)
        rows = sq.argmin(axis=1)
        labels[start:stop] = rows
        assigned[start:stop] = sq[np.arange(stop - start), rows]
    return labels, assigned


def assign_labels(
    points: np.ndarray,
    centroids: np.ndarray,
    point_norms: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment: ``(labels, assigned_sq_distance)``.

    Distances are computed a chunk of rows at a time in one fixed-size
    scratch table (:func:`_assign_into`); each row's distances are the
    same expression, on the same BLAS kernel, as in a one-shot
    ``(n_points, n_clusters)`` table, so labels and distances are the same
    bits.  Ties break toward the lowest cluster id (``argmin``).
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if point_norms is None:
        point_norms = np.einsum("ij,ij->i", points, points)
    table = _assign_table(points.shape[0], centroids.shape[0])
    return _assign_into(table, points, centroids, point_norms)


def cluster_sums(points: np.ndarray, labels: np.ndarray, n_clusters: int) -> np.ndarray:
    """``(n_clusters, dim)`` sums of the ``points`` rows carrying each label.

    The product of the one-hot ``(n_clusters, n_points)`` membership matrix
    with ``points``.  The matrix is written as its transpose's CSR —
    indices are the labels themselves, nothing is sorted — so scipy walks
    the points in ascending order and adds each into its cluster's row:
    the additions, and their order, of a ``ufunc.at`` row scatter, hence
    the same bits, over ten times faster.  (A label-sorted
    ``np.add.reduceat`` is *not* the same bits: on general float64 input
    most sums differ in the last place; it only agrees on float32-derived
    data, where every partial sum is exact.)  Clusters with no member come
    back as zero rows.
    """
    n = len(labels)
    onehot = sp.csr_matrix((np.ones(n), labels, np.arange(n + 1)), shape=(n, n_clusters))
    return onehot.T @ points


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    seed: int = 0,
    iters: int = 25,
    tol: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster ``points`` into ``n_clusters``; returns ``(centroids, labels)``.

    ``centroids`` is ``(n_clusters, dim)`` float64, ``labels`` is
    ``(n_points,)`` int64.  ``n_clusters`` is clipped to the number of
    points.  Iteration stops early once an assignment pass changes nothing,
    or — when ``tol > 0`` — once the mean squared centroid shift drops to
    ``tol`` times the mean point squared norm (a scale-free convergence
    check; PQ codebook training uses it to cut the long converged tail on
    large catalogs).  ``tol=0`` keeps the historical exact behaviour.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if n < 1:
        raise ValueError("need at least one point")
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    n_clusters = min(int(n_clusters), n)
    rng = np.random.default_rng(seed)

    point_norms = np.einsum("ij,ij->i", points, points)
    centroids = _kmeanspp_init(points, point_norms, n_clusters, rng)
    shift_floor = float(tol) * float(point_norms.mean()) if tol > 0 else 0.0
    labels = np.full(n, -1, dtype=np.int64)
    table = _assign_table(n, n_clusters)
    for _ in range(max(1, int(iters))):
        new_labels, assigned = _assign_into(table, points, centroids, point_norms)

        # Reseed empty clusters to the points their current centroids serve
        # worst — deterministic, and it keeps every list non-degenerate so
        # `nprobe` always buys real candidates.  A point only moves if its
        # current cluster keeps at least one member, so reseeding can never
        # create a fresh empty cluster (and the 0/0 NaN centroid it would
        # produce); since empties exist only when some cluster has >= 2
        # points, a donor always exists.
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
        new_centroids = cluster_sums(points, labels, n_clusters) / counts[:, None]
        if shift_floor > 0.0:
            shift = float(np.mean(np.sum((new_centroids - centroids) ** 2, axis=1)))
            centroids = new_centroids
            if shift <= shift_floor:
                break
        else:
            centroids = new_centroids
    return centroids, labels
