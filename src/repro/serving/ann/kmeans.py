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
  through the same expression (:func:`_distance_rows`) at the same
  padded height, and only where a probe of this BLAS shows gathered rows
  reproduce the table (:func:`~repro.scoring.gathers_reproduce`).
  A pass runs the full table instead when most points are candidates
  anyway, and when a cluster comes out empty (reseeding ranks every
  point by its exact distance).
* **Partial centroid updates.**  A cluster whose membership did not
  change keeps its centroid row; the others are summed over their members
  only (:func:`cluster_sums`), in NumPy and with the additions, and their
  order, of a row scatter.  Nothing here loads scipy: neither does a
  serve set-up, a lifecycle round or a staleness re-cluster.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...scoring import ROW_MULTIPLE, gathers_reproduce, gemm_rows, padded_rows

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

#: when more than this share of the points are candidates, a pass runs
#: the full table: gathering nearly every row costs more than it saves.
_PRUNE_MAX_SHARE = 0.6

#: byte size of the block :func:`_member_sums` gathers label-sorted rows
#: into (at least one row).  A catalog build's cluster sums were fastest at
#: 512 KB: ~5 % slower at 256 KB and at 1 MB, ~20 % at 128 KB.
_SUM_BLOCK_BYTES = 1 << 19


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
    ``_ASSIGN_TABLE_BYTES`` (no more than ``n_points``), rounded up to
    :func:`~repro.scoring.gemm_rows` height."""
    rows = max(1, _ASSIGN_TABLE_BYTES // (8 * max(n_clusters, 1)))
    return np.empty((gemm_rows(min(rows, n_points), n_clusters), n_clusters), dtype=np.float64)


def _distance_rows(
    out: np.ndarray, point_norms: np.ndarray, centroid_norms: np.ndarray
) -> np.ndarray:
    """Squared distances from the products ``x.c`` in ``out``, in place.

    Every assignment distance row goes through here: four elementwise
    passes, ``max(|x|^2 - 2 x.c + |c|^2, 0)`` in that order, so nothing
    the size of ``out`` is allocated.
    """
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
    subset: Optional[np.ndarray] = None,
    gather: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`assign_labels` of the points ``subset`` (all by default)
    through a caller-owned scratch ``table``; ``second``, when given,
    receives each one's second-smallest squared distance.

    Rows go a table height at a time, itself a
    :func:`~repro.scoring.gemm_rows` height.  A shorter tail, and every
    chunk of a subset, is gathered (into ``gather`` when given, never an
    ``n x dim`` copy) with copies of its first point up to one, and the
    padding rows are dropped: a row gets the same bits in a full pass and
    in a recomputation of its own.
    """
    n_clusters = centroids.shape[0]
    n = points.shape[0] if subset is None else len(subset)
    labels = np.empty(n, dtype=np.int64)
    assigned = np.empty(n, dtype=np.float64)
    centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
    for start in range(0, n, table.shape[0]):
        stop = min(start + table.shape[0], n)
        kept = slice(start, stop) if subset is None else subset[start:stop]
        rows = gemm_rows(stop - start, n_clusters)
        if subset is None and rows == stop - start:
            chunk = points[kept]
        else:
            ids = padded_rows(np.arange(start, stop) if subset is None else kept, n_clusters)
            chunk = points[ids] if gather is None else np.take(points, ids, 0, gather[:rows])
        np.matmul(chunk, centroids.T, out=table[:rows])
        del chunk  # a gathered copy is freed before the elementwise passes
        sq = _distance_rows(table[: stop - start], point_norms[kept], centroid_norms)
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
    scratch table (:func:`_assign_into`) at
    :func:`~repro.scoring.gemm_rows` height, so a point's label and
    distance are the same bits whatever points it is assigned with.  Ties
    break toward the lowest cluster id (``argmin``).
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

    The bits of a row scatter (``np.add.at`` on a zero table): each
    cluster's row is ``0.0`` plus its members in ascending point order,
    one addition after another.  Clusters with no member come back as zero
    rows.  A label-sorted ``np.add.reduceat`` is *not* those bits: NumPy
    adds a segment pairwise, and most float64 sums then differ in the last
    place.  :func:`_member_sums` says how these sums keep the order.
    """
    return _member_sums(points, labels, np.ones(len(labels), dtype=bool), n_clusters)


def _member_sums(
    points: np.ndarray, labels: np.ndarray, members: np.ndarray, n_clusters: int
) -> np.ndarray:
    """:func:`cluster_sums` over the points flagged in the boolean ``members``.

    The members are sorted by label (stably, so each cluster keeps point
    order; labels in the narrowest unsigned type sort by radix) and
    gathered a block at a time.  Each cluster is then summed *negated*:
    its first row is negated and the rest are subtracted, by one
    ``np.subtract.reduceat`` per block.  Subtraction, unlike addition, is
    reduced strictly one element after another at every width, and
    ``-(s + x)`` is ``(-s) - x`` exactly, so each step holds the negated
    scatter sum (a zero perhaps signed otherwise).  A cluster that carries
    on from the previous block starts from its partial sum in row 0.  The
    final ``0.0 - sums`` gives back the scatter's bits, ``+0.0`` for every
    zero.  Only a block of rows is gathered, never every member.
    """
    dim = points.shape[1]
    ids = np.flatnonzero(members)
    keys = labels[ids].astype(np.min_scalar_type(max(n_clusters - 1, 0)))
    order = ids[np.argsort(keys, kind="stable")]
    counts = np.bincount(keys, minlength=n_clusters)
    clusters = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[clusters]  # first position in `order`
    sums = np.zeros((n_clusters, dim))
    rows = max(1, min(len(order), _SUM_BLOCK_BYTES // (8 * max(dim, 1))))
    block = np.empty((rows + 1, dim))
    for lo in range(0, len(order), rows):
        hi = min(lo + rows, len(order))
        # ids are in range: "clip" only spares the copy of `out` "raise" makes
        np.take(points, order[lo:hi], axis=0, out=block[1 : hi - lo + 1], mode="clip")
        # clusters [first, last) have rows here; `first` may carry on
        first = np.searchsorted(starts, lo, side="right") - 1
        last = np.searchsorted(starts, hi)
        offsets = np.maximum(starts[first:last] - lo + 1, 0)
        heads = offsets[offsets > 0]
        block[heads] = -block[heads]
        block[0] = sums[clusters[first]]
        sums[clusters[first:last]] = np.subtract.reduceat(block[: hi - lo + 1], offsets, axis=0)
    return np.subtract(0.0, sums, out=sums)


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


def _prunable(table: np.ndarray, points: np.ndarray, centroids: np.ndarray) -> bool:
    """Whether gathered distance rows give the first table chunk's bits on
    this BLAS, for this shape, at the first padded heights a gather runs at."""
    n_clusters = centroids.shape[0]
    chunk = padded_rows(np.arange(min(points.shape[0], table.shape[0])), n_clusters)
    heights = range(gemm_rows(1, n_clusters), len(chunk) + 1, ROW_MULTIPLE)
    return n_clusters > 1 and gathers_reproduce(points[chunk], centroids, heights[:4])


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

    # Pruning needs gathered rows to reproduce the table's, and a second
    # cluster to be nearest to.
    prunable = _prunable(table, points, centroids)
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
            second = np.empty(len(candidates))
            new_labels[candidates], nearest = _assign_into(
                table, points, centroids, point_norms, second, candidates, gather
            )
            upper[candidates] = np.sqrt(nearest)
            lower[candidates] = np.sqrt(second)

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
