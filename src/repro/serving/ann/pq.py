"""Product quantization of frozen item factors: the fine stage of IVF-PQ.

Scalar quantization compresses each item-factor *element* to one byte —
a 4-8x ceiling.  Product quantization compresses whole *subvectors*:
each branch's ``(n_items, d)`` factors are split into
``M = ceil(d / subspace_dim)`` subspaces, a k-means codebook of at most
256 centroids is trained per subspace (the existing pure-NumPy
:func:`~.kmeans.kmeans` with kmeans++ seeding), and every item is stored
as ``M`` uint8 codes — ``M`` bytes instead of ``4d``/``8d``, a 16-64x
item-side reduction at ``subspace_dim`` 4-8.

Scoring is **ADC** (asymmetric distance computation): the query stays
exact, and per query row one lookup table per subspace is built as
``LUT_m = u_m @ codebook_m.T``; the approximate inner product of a block
of items is then ``sum_m LUT_m[:, codes[:, m]]`` — pure table gathers, no
per-item arithmetic in ``d``.  Branch constants and weights are applied
exactly, mirroring :func:`~repro.core.base.score_branches`, so PQ error
comes only from the factor-product term.

There is no standalone PQ index: codes only exist as the residual
companion of an :class:`~.ivf.IVFIndex` (``build_ivf(..., pq=True)``),
each item coded relative to its IVF list's mean factor row.  ADC scores
are approximate, which is why the ``pq`` fine-stage arm always
**re-ranks** an over-fetched candidate pool with the exact
``score_branches`` kernel before returning: ADC decides *which*
``rerank_factor * k`` candidates to look at, exact scoring decides their
order.  The recall harness in :mod:`repro.eval.ann` measures (not
assumes) what survives.

An optional OPQ-style **learned rotation** per branch aligns the factor
axes with the subspace grid before splitting: alternate PQ training with
the orthogonal-Procrustes solution ``R = U V^T`` of
``SVD(X^T X_hat)``.  Rotations are orthogonal, so rotating both queries
and items preserves inner products exactly and only the quantization
error changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...core.base import ScoreBranch
from .kmeans import assign_labels, kmeans

#: uint8 codes: a codebook can never exceed this many centroids
MAX_CENTROIDS = 256

#: cap on the (users x candidates x dim) gather one exact re-rank chunk
#: may materialize (index-dtype elements)
_RERANK_CHUNK_ELEMENTS = 8_000_000


def subspace_splits(d: int, subspace_dim: int) -> List[Tuple[int, int]]:
    """``[(start, stop), ...]`` column ranges splitting ``d`` dims into
    ``ceil(d / subspace_dim)`` near-equal subspaces (first ones wider when
    ``d`` does not divide evenly — the :func:`numpy.array_split` layout)."""
    if subspace_dim < 1:
        raise ValueError(f"subspace_dim must be >= 1, got {subspace_dim}")
    n_sub = max(1, -(-d // int(subspace_dim)))
    bounds = np.linspace(0, d, n_sub + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_sub)]


@dataclass
class PQBranch:
    """PQ codebooks + codes for one branch's item factors.

    ``codebooks[m]`` is ``(n_centroids_m, sub_dim_m)`` float64;
    ``codes`` is ``(n_items, M)`` uint8.  ``rotation`` (optional,
    ``(d, d)`` float64, orthogonal) was applied to the item factors
    *before* splitting — queries must be rotated the same way, which
    :func:`score_pq_block` does.  Reconstruction lives in the rotated
    space; ``dequantized`` rotates it back.
    """

    codebooks: List[np.ndarray]
    codes: np.ndarray
    rotation: Optional[np.ndarray] = None
    splits: List[Tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.codes.dtype != np.dtype(np.uint8):
            raise ValueError("PQ codes must be uint8")
        if self.codes.shape[1] != len(self.codebooks):
            raise ValueError("one code column per codebook")
        if not self.splits:
            start = 0
            self.splits = []
            for cb in self.codebooks:
                self.splits.append((start, start + cb.shape[1]))
                start += cb.shape[1]

    @property
    def n_subspaces(self) -> int:
        return len(self.codebooks)

    @property
    def d(self) -> int:
        return self.splits[-1][1]

    def code_bytes(self) -> int:
        return int(self.codes.nbytes)

    def table_bytes(self) -> int:
        total = sum(cb.nbytes for cb in self.codebooks)
        if self.rotation is not None:
            total += self.rotation.nbytes
        return int(total)

    def dequantized(self, dtype=np.float64) -> np.ndarray:
        """Reconstructed item factors in the *original* (unrotated) axes."""
        out = np.empty((self.codes.shape[0], self.d), dtype=np.float64)
        for m, cb in enumerate(self.codebooks):
            lo, hi = self.splits[m]
            out[:, lo:hi] = cb[self.codes[:, m]]
        if self.rotation is not None:
            out = out @ self.rotation.T
        return out.astype(dtype, copy=False)


def _train_codebooks(
    train: np.ndarray,
    splits: Sequence[Tuple[int, int]],
    n_centroids: int,
    seed: int,
    iters: int,
    tol: float,
) -> List[np.ndarray]:
    """One k-means codebook per subspace of the (already rotated) sample.

    Each subspace gets its own derived seed so codebooks are independent
    draws but the whole training run stays deterministic in ``seed``.
    """
    codebooks = []
    for m, (lo, hi) in enumerate(splits):
        centroids, _ = kmeans(
            np.ascontiguousarray(train[:, lo:hi]),
            min(int(n_centroids), train.shape[0]),
            seed=seed + 7919 * (m + 1),
            iters=iters,
            tol=tol,
        )
        codebooks.append(centroids)
    return codebooks


def _assign_codes(
    items: np.ndarray, codebooks: Sequence[np.ndarray], splits: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Nearest-centroid codes for the full (rotated) catalog, uint8."""
    codes = np.empty((items.shape[0], len(codebooks)), dtype=np.uint8)
    for m, (lo, hi) in enumerate(splits):
        labels, _ = assign_labels(np.ascontiguousarray(items[:, lo:hi]), codebooks[m])
        codes[:, m] = labels.astype(np.uint8)
    return codes


def _reconstruct(codes: np.ndarray, codebooks, splits) -> np.ndarray:
    out = np.empty((codes.shape[0], splits[-1][1]), dtype=np.float64)
    for m, (lo, hi) in enumerate(splits):
        out[:, lo:hi] = codebooks[m][codes[:, m]]
    return out


def _train_rotation(
    train: np.ndarray,
    splits: Sequence[Tuple[int, int]],
    n_centroids: int,
    seed: int,
    iters: int,
    tol: float,
    rounds: int = 3,
) -> np.ndarray:
    """OPQ-style alternating optimization of an orthogonal rotation.

    Alternates (a) PQ codebook training on the rotated sample with (b) the
    orthogonal-Procrustes update ``R = U V^T`` from ``SVD(X^T X_hat)``,
    which minimizes ``|X R - X_hat|_F`` over orthogonal ``R``.  A few
    rounds capture most of the gain; training is offline, so this stays
    deliberately simple.
    """
    d = train.shape[1]
    rotation = np.eye(d)
    for _ in range(max(1, int(rounds))):
        rotated = train @ rotation
        codebooks = _train_codebooks(rotated, splits, n_centroids, seed, iters, tol)
        codes = _assign_codes(rotated, codebooks, splits)
        reconstructed = _reconstruct(codes, codebooks, splits)
        u, _, vt = np.linalg.svd(train.T @ reconstructed)
        rotation = u @ vt
    return rotation


def build_pq_branch(
    item: np.ndarray,
    subspace_dim: int = 4,
    n_centroids: int = 256,
    rotation: bool = False,
    seed: int = 0,
    iters: int = 25,
    tol: float = 1e-4,
    train_sample: Optional[int] = None,
) -> PQBranch:
    """Train PQ (optionally OPQ) for one branch's ``(n_items, d)`` factors.

    Codebooks are trained on at most ``train_sample`` rows (a seeded
    uniform subsample) and the *full* catalog is then coded in one chunked
    assignment pass — training cost stays bounded for 1M+ catalogs while
    every item still gets its true nearest centroid.
    """
    if not 1 <= n_centroids <= MAX_CENTROIDS:
        raise ValueError(f"n_centroids must be in [1, {MAX_CENTROIDS}], got {n_centroids}")
    item = np.asarray(item, dtype=np.float64)
    n, d = item.shape
    splits = subspace_splits(d, subspace_dim)
    rng = np.random.default_rng(seed)
    if train_sample is not None and n > int(train_sample):
        sample = np.sort(rng.choice(n, int(train_sample), replace=False))
        train = item[sample]
    else:
        train = item
    rot = None
    if rotation:
        rot = _train_rotation(train, splits, n_centroids, seed, iters, tol)
        train = train @ rot
        item = item @ rot
    codebooks = _train_codebooks(train, splits, n_centroids, seed, iters, tol)
    codes = _assign_codes(item, codebooks, splits)
    return PQBranch(codebooks=codebooks, codes=codes, rotation=rot, splits=splits)


def score_pq_block(
    branches: Sequence[ScoreBranch],
    pq_branches: Sequence[PQBranch],
    code_blocks: Sequence[np.ndarray],
    item_consts: Sequence[Optional[np.ndarray]],
    users: np.ndarray,
    dtype: np.dtype,
    means: Sequence[np.ndarray],
) -> np.ndarray:
    """ADC scores of ``users`` against pre-sliced item code blocks.

    ``code_blocks[b]`` / ``item_consts[b]`` are the branch-``b`` codes and
    (exact) item constants of the block being scored — a permuted per-list
    slice in the IVF fine stage.  Per branch, one float64 lookup table per
    subspace is built from the exact user rows (rotated first when the
    branch carries an OPQ rotation), the block score is the gathered table
    sum, and constants/weights are applied exactly — the branch loop of
    :func:`~repro.core.base.score_branches`.

    ``means[b]`` is the ``(d,)`` vector the branch-``b`` codes were
    *residual-encoded* against (the probed list's mean factor row).  Every
    item in the block scores as ``u·mean + ADC(residual codes)`` — the mean
    dot uses the unrotated user row, since an OPQ rotation applies to the
    residual space only.  Zero means score the codes as plain PQ.
    """
    users = np.asarray(users, dtype=np.int64)
    dtype = np.dtype(dtype)
    total: Optional[np.ndarray] = None
    for branch, pb, codes, const, mean in zip(
        branches, pq_branches, code_blocks, item_consts, means
    ):
        u_raw = np.asarray(branch.user[users], dtype=np.float64)
        u = u_raw @ pb.rotation if pb.rotation is not None else u_raw
        part64: Optional[np.ndarray] = None
        for m, cb in enumerate(pb.codebooks):
            lo, hi = pb.splits[m]
            lut = u[:, lo:hi] @ cb.T  # (rows, n_centroids_m)
            term = lut[:, codes[:, m]]
            part64 = term if part64 is None else part64 + term
        part64 = part64 + (u_raw @ np.asarray(mean, dtype=np.float64))[:, None]
        part = part64.astype(dtype, copy=False)
        if const is not None:
            part = part + const[None, :].astype(dtype, copy=False)
        if branch.user_const is not None:
            part = part + branch.user_const[users].astype(dtype, copy=False)[:, None]
        if branch.weight != 1.0:
            part = branch.weight * part
        total = part if total is None else total + part
    assert total is not None, "need at least one branch"
    return total


def score_candidates_exact(
    branches: Sequence[ScoreBranch],
    users: np.ndarray,
    candidates: np.ndarray,
    dtype: np.dtype,
) -> np.ndarray:
    """Exact scores of per-user candidate id matrices (the re-rank kernel).

    ``candidates`` is ``(len(users), m)`` global item ids.  Semantics
    mirror :func:`~repro.core.base.score_branches` — per-branch gathered
    dot products plus exact constants and weights — but against a ragged
    per-user candidate set instead of a contiguous block, so the product
    is a gather-einsum.  Chunked over users to bound the ``(chunk, m, d)``
    gather.
    """
    users = np.asarray(users, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.int64)
    dtype = np.dtype(dtype)
    n, m = candidates.shape
    out = np.zeros((n, m), dtype=dtype)
    widest = max(int(b.item.shape[1]) for b in branches)
    chunk = max(1, _RERANK_CHUNK_ELEMENTS // max(m * widest, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        u_sel = users[start:stop]
        cand = candidates[start:stop]
        total: Optional[np.ndarray] = None
        for branch in branches:
            u = branch.user[u_sel].astype(dtype, copy=False)
            gathered = branch.item[cand].astype(dtype, copy=False)
            part = np.einsum("nd,ncd->nc", u, gathered)
            if branch.item_const is not None:
                part = part + branch.item_const[cand].astype(dtype, copy=False)
            if branch.user_const is not None:
                part = part + branch.user_const[u_sel].astype(dtype, copy=False)[:, None]
            if branch.weight != 1.0:
                part = branch.weight * part
            total = part if total is None else total + part
        out[start:stop] = total
    return out
