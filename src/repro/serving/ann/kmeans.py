"""Pure-NumPy k-means, the coarse quantizer behind :class:`IVFIndex`.

Lloyd's algorithm with k-means++ seeding, run entirely in float64 for
stable centroid updates regardless of the index precision.  Everything is
deterministic given ``seed``: initialization draws from one
``default_rng`` stream, assignment ties break toward the lowest cluster
id (``argmin``), and empty clusters are reseeded to the point currently
worst-served by its centroid — so rebuilding an IVF index from the same
embeddings always yields the same partition.

This is an offline, build-time kernel, but every serve or refresh
deployment starts with it, so its cost is the set-up cost.  Three things
keep it down, and none of them moves a bit of the plain Lloyd result
(``tests/serving/kmeans_pins.json`` holds those bits):

* **One scratch table.**  Distances are filled chunk after chunk, in
  place, into one table of fixed byte size (``_ASSIGN_TABLE_BYTES``) — a
  fresh ``(n_points, n_clusters)`` table per pass is mostly page faults.
* **Bound-pruned passes.**  From the third pass on, every point carries
  Hamerly bounds: an upper bound on its distance to its own centroid and
  a lower bound on its distance to any other.  A pass recomputes distance
  rows only for the points whose bounds cannot prove their label
  unchanged (:func:`_candidates`); on the benchmark catalog that is a
  fifth to a quarter of the rows.  The test carries a slack far above
  the float64 rounding of a table entry, so a skipped point's ``argmin``
  over the full table is provably its current label; recomputed rows go
  through the same expression (:func:`_distance_rows`) on products
  padded onto the same BLAS kernel, and only where a probe of this BLAS
  shows gathered rows reproduce the table (:func:`_gathers_reproduce`).
  A pass runs the full table instead when most points are candidates
  anyway, and when a cluster comes out empty (reseeding ranks every
  point by its exact distance).
* **Sparse centroid updates.**  A cluster whose membership did not
  change keeps its centroid row; the others are summed by a one-hot
  sparse product over their members only (:func:`cluster_sums`), whose
  additions and their order are those of a row scatter.
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

#: skip-test slack relative to ``|x| + max|c|``.  The float64 rounding of
#: one table entry is ~1e-14 of ``(|x| + |c|)^2``, so a bound estimated
#: from the table is off by at most ~1e-7 of ``|x| + |c|``; a skipped
#: point clears every other centroid by hundreds of times that.
_BOUND_SLACK = 1e-6

#: a gathered product is padded to at least this many rows, and to more
#: than ``_SMALL_GEMM_ENTRIES`` output entries.  BLAS sends one-row
#: products through GEMV, and OpenBLAS sends a product of at most 1200
#: output entries with a dot length of 32 or more through its small-matrix
#: kernel; both accumulate a dot product in another order than the
#: blocked GEMM every full-table chunk runs on.
_SUBSET_MIN_ROWS = 32
_SMALL_GEMM_ENTRIES = 1200

#: consecutive gather heights :func:`_gathers_reproduce` checks.  Some
#: shapes get last bits that depend on the product height modulo the
#: GEMM micro-tile (OpenBLAS on AVX-512 with more than 192 clusters not a
#: multiple of 8: only heights that are multiples of 12 agree); sixteen
#: consecutive heights cover every residue of the usual tiles.
_PROBE_HEIGHTS = 16

#: when more than this share of the points are candidates, a pass runs
#: the full table: gathering nearly every row costs more than it saves.
_PRUNE_MAX_SHARE = 0.6


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


def _chunks(n: int, height: int) -> np.ndarray:
    """Bounds of the fewest near-equal chunks of ``n`` rows that fit ``height``."""
    n_chunks = -(-n // height)
    return np.arange(n_chunks + 1) * n // max(n_chunks, 1)


def _distance_rows(
    out: np.ndarray,
    points: np.ndarray,
    centroids: np.ndarray,
    point_norms: np.ndarray,
    centroid_norms: np.ndarray,
) -> np.ndarray:
    """Squared distances of ``points`` to every centroid, into ``out``.

    Every assignment distance row is computed here: one matmul and four
    in-place elementwise passes, ``max(|x|^2 - 2 x.c + |c|^2, 0)`` in that
    order, so nothing the size of ``out`` is allocated.
    """
    np.matmul(points, centroids.T, out=out)
    np.multiply(out, 2.0, out=out)
    np.subtract(point_norms[:, None], out, out=out)
    np.add(out, centroid_norms[None, :], out=out)
    np.maximum(out, 0.0, out=out)
    return out


def _nearest(sq: np.ndarray, second: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Row ``argmin`` and its value; with ``second``, also the smallest
    value over the other columns (``inf`` with one column).  Overwrites
    the minimum of each row of ``sq`` when ``second`` is asked for."""
    rows = np.arange(sq.shape[0])
    labels = sq.argmin(axis=1)
    assigned = sq[rows, labels]
    if second is not None:
        sq[rows, labels] = np.inf
        sq.min(axis=1, out=second)
    return labels, assigned


def _assign_into(
    table: np.ndarray,
    points: np.ndarray,
    centroids: np.ndarray,
    point_norms: np.ndarray,
    second: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`assign_labels` through a caller-owned scratch ``table``;
    ``second``, when given, receives each point's second-smallest squared
    distance.

    The rows are cut into the fewest chunks that fit the table, of
    near-equal height, so no chunk is a short tail.  That is for the bits,
    not the speed: BLAS sends a one-row product through GEMV and a small
    one through small-matrix kernels (``_SMALL_GEMM_ENTRIES``), both of which
    accumulate a long dot product in another order than the blocked GEMM
    — a 5-row tail would get last bits its rows do not get inside a big
    product.  Every chunk being at least half a table keeps each one, and
    the one-shot product it stands for, on the same kernel.
    """
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    assigned = np.empty(n, dtype=np.float64)
    centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
    bounds = _chunks(n, table.shape[0])
    for start, stop in zip(bounds[:-1], bounds[1:]):
        sq = _distance_rows(
            table[: stop - start], points[start:stop], centroids,
            point_norms[start:stop], centroid_norms,
        )
        labels[start:stop], assigned[start:stop] = _nearest(
            sq, None if second is None else second[start:stop]
        )
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


def cluster_sums(
    points: np.ndarray, labels: np.ndarray, n_clusters: int
) -> np.ndarray:
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
    return _member_sums(points, labels, np.ones(len(labels), dtype=bool), n_clusters)


def _member_sums(
    points: np.ndarray, labels: np.ndarray, members: np.ndarray, n_clusters: int
) -> np.ndarray:
    """:func:`cluster_sums` over the points flagged in the boolean ``members``.

    The other points get empty CSR rows, so a cluster all of whose points
    are members sums the same rows in the same order — the same bits —
    and ``points`` is never gathered."""
    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    np.cumsum(members, out=indptr[1:])
    onehot = sp.csr_matrix(
        (np.ones(int(indptr[-1])), labels[members], indptr), shape=(len(labels), n_clusters)
    )
    return onehot.T @ points


def _candidates(
    upper: np.ndarray,
    lower: np.ndarray,
    radius: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    centroid_norms: np.ndarray,
    centroid_radius: float,
) -> np.ndarray:
    """Ids of the points whose bounds cannot prove their label unchanged.

    A point is skipped only when ``upper + slack < max(gap / 2, lower) -
    slack``, ``gap`` being its centroid's distance to the nearest other
    centroid and ``slack`` ``_BOUND_SLACK * (|x| + max|c|)``.  Then every
    other centroid is farther than its own by more than ``2 * slack`` in
    distance, which the rounding of the table cannot undo: ``argmin`` over
    its recomputed row would return its current label.
    """
    gram = centroids @ centroids.T
    gap_sq = centroid_norms[:, None] + centroid_norms[None, :] - 2.0 * gram
    np.fill_diagonal(gap_sq, np.inf)
    half_gap = 0.5 * np.sqrt(np.maximum(gap_sq.min(axis=1), 0.0))
    slack = _BOUND_SLACK * (radius + centroid_radius)
    bar = np.maximum(half_gap[labels], lower)
    bar -= 2.0 * slack
    bar -= upper
    return np.flatnonzero(~(bar > 0.0))


def _min_rows(n_clusters: int) -> int:
    """Fewest rows a distance product needs to run on the blocked GEMM."""
    return max(_SUBSET_MIN_ROWS, _SMALL_GEMM_ENTRIES // n_clusters + 1)


def _gathers_reproduce(
    table: np.ndarray,
    points: np.ndarray,
    centroids: np.ndarray,
    point_norms: np.ndarray,
    min_rows: int,
) -> bool:
    """Whether gathered products give the full table's bits on this BLAS,
    for this shape.

    Fills the first full-table chunk, then recomputes rows of it gathered
    in another order at ``_PROBE_HEIGHTS`` consecutive heights from
    ``min_rows``, and compares bytes.  Pruning runs only where this holds:
    which kernel a product lands on, and how it tiles, is the BLAS's
    business, so it is observed rather than assumed.
    """
    height = int(_chunks(points.shape[0], table.shape[0])[1])
    centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
    full = _distance_rows(
        table[:height], points[:height], centroids, point_norms[:height], centroid_norms
    )
    sub = np.empty((min_rows + _PROBE_HEIGHTS, centroids.shape[0]))
    for rows in range(min_rows, min_rows + _PROBE_HEIGHTS):
        ids = (height - 1 - np.arange(rows) * 7) % height
        got = _distance_rows(sub[:rows], points[ids], centroids, point_norms[ids], centroid_norms)
        if got.tobytes() != full[ids].tobytes():
            return False
    return True


def _reassign(
    table: np.ndarray,
    gather: np.ndarray,
    candidates: np.ndarray,
    points: np.ndarray,
    centroids: np.ndarray,
    point_norms: np.ndarray,
    labels: np.ndarray,
    upper: np.ndarray,
    lower: np.ndarray,
    min_rows: int,
) -> None:
    """Recompute the distance rows of ``candidates`` only, in place.

    Candidates are gathered a chunk at a time into the fixed ``gather``
    scratch (never an ``n x dim`` copy) and their rows go through
    :func:`_distance_rows` like any full-table chunk; a chunk shorter than
    ``min_rows`` (at most the table height) is padded with copies of
    point 0 so the product stays on the blocked GEMM kernel, and the
    padding rows are dropped.  Writes
    the candidates' ``labels`` and their ``upper`` / ``lower`` bounds."""
    centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
    bounds = _chunks(len(candidates), table.shape[0])
    ids = np.zeros(table.shape[0], dtype=np.int64)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        height = stop - start
        rows = max(height, min_rows)
        ids[:height] = candidates[start:stop]
        ids[height:rows] = 0
        np.take(points, ids[:rows], axis=0, out=gather[:rows])
        sq = _distance_rows(
            table[:rows], gather[:rows], centroids, point_norms[ids[:rows]], centroid_norms
        )
        second = np.empty(rows)
        nearest, assigned = _nearest(sq, second)
        chosen = candidates[start:stop]
        labels[chosen] = nearest[:height]
        upper[chosen] = np.sqrt(assigned[:height])
        lower[chosen] = np.sqrt(second[:height])


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

    # Pruning needs every full-table chunk and every padded gather on the
    # blocked GEMM kernel, and a second cluster to be nearest to.
    min_rows = _min_rows(n_clusters)
    prunable = (
        n_clusters > 1
        and n // (len(_chunks(n, table.shape[0])) - 1) >= min_rows
        and _gathers_reproduce(table, points, centroids, point_norms, min_rows)
    )
    if prunable:
        # Hamerly bounds, as distances: to the own centroid, to any other.
        upper = np.empty(n)
        lower = np.empty(n)
        radius = np.sqrt(point_norms)
        gather = np.empty((table.shape[0], points.shape[1]))
    bounded = False  # upper / lower hold for the current centroids
    misses = 0  # consecutive checks that found most points candidates
    # full passes to run before bounds are built: the first update moves
    # the seeds too far for bounds taken before it to prune anything
    plain_left = 1
    centroid_radius = 0.0
    for _ in range(max(1, int(iters))):
        candidates = None
        if bounded:
            centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
            centroid_radius = max(centroid_radius, float(np.sqrt(centroid_norms.max())))
            candidates = _candidates(
                upper, lower, radius, labels, centroids, centroid_norms, centroid_radius
            )
            if len(candidates) <= _PRUNE_MAX_SHARE * n:
                misses = 0
            else:
                # Most rows are needed anyway: run the full table, and
                # skip the bounds (their second minimum is an extra read
                # of the table) for 1, 3, 7, ... passes as misses repeat —
                # unclustered input stops paying for them.
                candidates = None
                misses += 1
                plain_left = (1 << misses) - 1
        assigned = None
        if candidates is None:
            bounded = prunable and plain_left == 0
            plain_left = max(plain_left - 1, 0)
            new_labels, assigned = _assign_into(
                table, points, centroids, point_norms, lower if bounded else None
            )
            if bounded:
                np.sqrt(assigned, out=upper)
                np.sqrt(lower, out=lower)
        else:
            new_labels = labels.copy()
            _reassign(
                table, gather, candidates, points, centroids, point_norms,
                new_labels, upper, lower, min_rows,
            )

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
            if assigned is None:
                # the ranking needs every point's exact distance: redo the
                # pass in full (its labels are the pruned pass's)
                new_labels, assigned = _assign_into(table, points, centroids, point_norms, lower)
                np.sqrt(assigned, out=upper)
                np.sqrt(lower, out=lower)
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
                        if bounded:
                            # its bounds are to its old cluster: recompute it
                            upper[point] = np.inf
                        break

        if np.array_equal(new_labels, labels):
            break
        # Only clusters that gained or lost a point are summed again.
        moved = new_labels != labels
        changed = np.zeros(n_clusters, dtype=bool)
        changed[new_labels[moved]] = True
        changed[labels[moved & (labels >= 0)]] = True
        labels = new_labels
        sums = _member_sums(points, labels, changed[labels], n_clusters)
        new_centroids = centroids.copy()
        new_centroids[changed] = sums[changed] / counts[changed, None]
        shift_sq = np.sum((new_centroids - centroids) ** 2, axis=1)
        centroids = new_centroids
        if shift_floor > 0.0 and float(np.mean(shift_sq)) <= shift_floor:
            break
        if bounded:
            # centroids moved: widen each point's bounds by how far
            shifts = np.sqrt(shift_sq)
            upper += shifts[labels]
            top = int(shifts.argmax())
            runner_up = float(np.delete(shifts, top).max())
            lower -= np.where(labels == top, runner_up, shifts[top])
    return centroids, labels
