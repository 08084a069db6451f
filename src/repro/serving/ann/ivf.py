"""IVF two-stage approximate retrieval over a frozen factorization.

The catalog is partitioned by a pure-NumPy k-means (:mod:`.kmeans`) over
the items' *combined* score vectors — the per-branch factors concatenated,
plus one column carrying the weighted item constants — so that a query
vector built the same way satisfies ``q . x == exact score - user-constant
terms``.  User-constant terms are per-user offsets that cannot change a
ranking, which makes the coarse stage a faithful inner-product geometry
for PUP's multi-branch layout, not a heuristic on one branch.

Search is two-stage:

1. **coarse** — one ``(batch, D) @ (D, n_lists)`` matmul against the
   centroids; each user probes its top-``nprobe`` lists;
2. **fine** — the probed lists' items are scored *exactly* in the index
   dtype.  Item factors are stored contiguously per list (a permuted copy
   of each branch's factor matrix), so the fine stage is a
   :func:`~repro.core.base.score_branches` call per (list, probing-users)
   group — THE scoring kernel, no gathers on the request path — and the
   per-user candidate pools merge through
   :func:`~repro.eval.topk.topk_pairs_rows`, the same deterministic
   (score desc, item id asc) order every exact path uses.

Because stage 2 is exact and the lists partition the catalog, probing all
lists (``nprobe >= n_lists``) makes the candidate pool the full catalog
and the result bit-identical to exact search — the property the test
suite pins (the usual 1-ULP caveat for degenerate matmul shapes noted in
:mod:`repro.serving.retrieval` applies here too).  Smaller ``nprobe``
trades recall for time along a measured curve (docs/performance.md).

An optional residual PQ companion (one :class:`~.pq.PQBranch` per branch,
``build_ivf(..., pq=True)``) supplies a ``pq`` scorer next to the exact
one: each probed list is scored by ADC table lookups (16-64x smaller item
payload) and keeps its ADC top ``rerank_factor * k``, and *every*
survivor is then re-scored exactly before the final
top-``k`` — ADC chooses candidates per list, exact scoring orders them,
so recall depends only on an item's ADC rank inside its own
(bounded-width) list and keeps holding as catalogs grow.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...core.base import ScoreBranch, branches_dtype, score_branches
from ...data.dataset import expand_csr_rows
from ...eval.topk import NEG_INF, partition_topk_rows, topk_pairs_rows
from ...obs.trace import maybe_span
from .kmeans import assign_labels, cluster_sums, kmeans
from .pq import PQBranch, build_pq_branch, score_candidates_exact, score_pq_block

SCORERS = ("exact", "pq")


def default_n_lists(n_items: int) -> int:
    """Default list count: ~sqrt(n)/2 — fewer, larger lists than the
    classic 4-sqrt(n) heuristic, because on this numpy substrate each
    probed list costs a Python-level dispatch and the fine stage is BLAS
    (dense-friendly), so compute density per list wins over finer pruning
    (see "When to stay exact" in docs/performance.md)."""
    return max(1, min(int(n_items), int(round(math.sqrt(max(n_items, 1)) / 2.0))))


def default_nprobe(n_lists: int) -> int:
    """Default operating point: probe 1/8 of the lists (min 1)."""
    return max(1, int(math.ceil(n_lists / 8)))


def _local_topk_set(scores: np.ndarray, k: int) -> np.ndarray:
    """The row-wise top-``k`` *set* under (score desc, index asc) — unordered.

    The fine stage only needs set membership per probed list (the global
    merge re-sorts everything), so this skips the per-row ordering that
    :func:`~repro.eval.topk.topk_indices_rows` pays for.  Ties at the
    k-th score are still repaired to the lowest indices — through the
    shared :func:`~repro.eval.topk.partition_topk_rows` diagnostics — which
    is what keeps full-probe search bit-identical to exact selection.
    """
    part, part_scores, ambiguous = partition_topk_rows(scores, k)
    for row in ambiguous:
        threshold = part_scores[row].min()
        above = np.flatnonzero(scores[row] > threshold)
        tied = np.flatnonzero(scores[row] == threshold)
        part[row] = np.concatenate([above, tied[: k - len(above)]])
    return part


def combined_item_vectors(branches: Sequence[ScoreBranch], start: int = 0) -> np.ndarray:
    """``(n_items - start, D)`` vectors of items ``start:`` whose inner
    product with a combined query reproduces the user-dependent part of
    the exact score (float64; each branch is cast straight into its columns,
    so no second catalog-sized float64 array is ever held)."""
    const: Optional[np.ndarray] = None
    for branch in branches:
        if branch.item_const is not None:
            term = branch.weight * np.asarray(branch.item_const[start:], dtype=np.float64)
            const = term if const is None else const + term
    widths = [b.item.shape[1] for b in branches]
    out = np.empty((len(branches[0].item[start:]), sum(widths) + (const is not None)))
    for branch, stop in zip(branches, np.cumsum(widths)):
        out[:, stop - branch.item.shape[1] : stop] = branch.item[start:]
    if const is not None:
        out[:, -1] = const
    return out


class IVFIndex:
    """Cluster-pruned two-stage search over an :class:`EmbeddingIndex`.

    Wraps the source index (user factors and catalog metadata are shared);
    owns the coarse centroids, the list layout, and contiguous permuted
    copies of the item-side arrays.  ``nprobe`` is the default operating
    point; every :meth:`search` can override it per call.  ``pq`` is the
    optional residual PQ companion: one :class:`~.pq.PQBranch` per branch,
    coded in catalog order against ``pq_list_means``.
    """

    def __init__(
        self,
        index,
        centroids: np.ndarray,
        list_indptr: np.ndarray,
        list_items: np.ndarray,
        nprobe: int,
        seed: int = 0,
        pq: Optional[List[PQBranch]] = None,
        rerank_factor: int = 8,
        perm_items: Optional[Sequence[Tuple[np.ndarray, Optional[np.ndarray]]]] = None,
        pq_list_means: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        self.index = index
        self.n_users = index.n_users
        self.n_items = index.n_items
        self.dtype = branches_dtype(index.branches)
        self.seed = int(seed)

        self.centroids = np.ascontiguousarray(centroids, dtype=np.float64)
        self.list_indptr = np.asarray(list_indptr, dtype=np.int64)
        self.n_lists = len(self.list_indptr) - 1
        if self.centroids.shape[0] != self.n_lists:
            raise ValueError("centroid count disagrees with the list layout")
        #: permutation: global item id of each slot in list-contiguous order
        self.list_items = np.asarray(list_items, dtype=np.int64)
        if self.list_items.shape != (self.n_items,):
            raise ValueError("list_items must be a permutation of the catalog")
        self.nprobe = int(nprobe)
        if not 1 <= self.nprobe <= self.n_lists:
            raise ValueError(f"nprobe must be in [1, {self.n_lists}], got {nprobe}")

        # Inverse layout maps: for any global item id, which list holds it
        # and at which slot of the permuted storage — O(1) lookups that let
        # exclusion masks scatter straight into the fine stage's scored
        # blocks instead of key-searching every candidate.
        self._item_position = np.empty(self.n_items, dtype=np.int64)
        self._item_position[self.list_items] = np.arange(self.n_items)
        self._item_list = np.empty(self.n_items, dtype=np.int64)
        self._item_list[self.list_items] = np.repeat(
            np.arange(self.n_lists), np.diff(self.list_indptr)
        )

        # Contiguous per-list item-side storage: the fine stage slices these
        # instead of gathering scattered rows per request.  A caller that
        # already has the permuted arrays — a tiered loader holding mmap
        # views of an ``include_items`` archive — passes them as
        # ``perm_items`` so no gathered RAM copy is ever made.
        perm = self.list_items
        if perm_items is not None:
            if len(perm_items) != len(index.branches):
                raise ValueError("one permuted item array pair per branch")
            self._perm_branches = [
                ScoreBranch(
                    user=branch.user,
                    item=item,
                    item_const=item_const,
                    user_const=branch.user_const,
                    weight=branch.weight,
                )
                for branch, (item, item_const) in zip(index.branches, perm_items)
            ]
        else:
            self._perm_branches = [
                ScoreBranch(
                    user=branch.user,
                    item=branch.item[perm],
                    item_const=None if branch.item_const is None else branch.item_const[perm],
                    user_const=branch.user_const,
                    weight=branch.weight,
                )
                for branch in index.branches
            ]
        self.pq = pq
        self._perm_pq_codes = None
        if pq is not None:
            if len(pq) != len(index.branches):
                raise ValueError(
                    f"{len(pq)} PQ branches for an index with {len(index.branches)}"
                )
            for branch, pb in zip(index.branches, pq):
                if pb.codes.shape[0] != self.n_items:
                    raise ValueError("PQ companion was built for a different catalog")
                if pb.d != branch.item.shape[1]:
                    raise ValueError("PQ subspaces disagree with branch factor dims")
            self._perm_pq_codes = [pb.codes[perm] for pb in pq]
        # Residual-PQ anchor: per branch, each list's mean factor row.  The
        # codes then encode item − mean(list) — within-list differences,
        # which is where ADC precision matters — and the fine stage adds
        # u·mean(list) back per probed list (see score_pq_block).
        self._pq_list_means: Optional[List[np.ndarray]] = None
        if (pq is None) != (pq_list_means is None):
            raise ValueError("a PQ companion and its list means come together")
        if pq_list_means is not None:
            if len(pq_list_means) != len(index.branches):
                raise ValueError("one list-mean matrix per branch")
            self._pq_list_means = []
            for branch, m in zip(index.branches, pq_list_means):
                m = np.ascontiguousarray(m, dtype=np.float64)
                if m.shape != (self.n_lists, branch.item.shape[1]):
                    raise ValueError(
                        f"list means must be ({self.n_lists}, "
                        f"{branch.item.shape[1]}), got {m.shape}"
                    )
                self._pq_list_means.append(m)
        self.rerank_factor = max(1, int(rerank_factor))

    # ------------------------------------------------------------------
    @property
    def scorers(self) -> Tuple[str, ...]:
        """Fine-stage scorers this index supports."""
        return SCORERS if self.pq is not None else ("exact",)

    @property
    def default_scorer(self) -> str:
        """A PQ companion exists to be *used*: it is the default operating
        point, with exact re-rank keeping recall honest."""
        return "pq" if self.pq is not None else "exact"

    @property
    def kind(self) -> str:
        """Index-kind label for memory reports and gauges."""
        return "ivf-pq" if self.pq is not None else "ivf"

    def list_sizes(self) -> np.ndarray:
        return np.diff(self.list_indptr)

    def _structure_bytes(self) -> int:
        """Everything but the permuted factor payload: centroids, list
        layout, PQ codes, codebooks and list means."""
        total = self.centroids.nbytes + self.list_indptr.nbytes + self.list_items.nbytes
        if self.pq is not None:
            total += sum(codes.nbytes for codes in self._perm_pq_codes)
            total += sum(pb.table_bytes() for pb in self.pq)
            total += sum(m.nbytes for m in self._pq_list_means)
        return total

    def memory_bytes(self) -> int:
        """Footprint of the IVF-owned arrays (permuted factors + structure)."""
        total = self._structure_bytes()
        for branch in self._perm_branches:
            total += branch.item.nbytes
            if branch.item_const is not None:
                total += branch.item_const.nbytes
        return total

    @property
    def bytes_per_item(self) -> float:
        """Item-side bytes per catalog item for the *default* fine scorer
        (f32/f64 factors for ``exact``, uint8 PQ codes for ``pq``) — the
        number the compression ladder compares."""
        if self.default_scorer == "pq":
            payload = sum(codes.nbytes for codes in self._perm_pq_codes)
        else:
            payload = sum(b.item.nbytes for b in self._perm_branches)
        return payload / max(1, self.n_items)

    def memory_report(self) -> dict:
        """The report shape the serving stats gauge publishes."""
        total = int(self.memory_bytes())
        return {
            "kind": self.kind,
            "bytes_total": total,
            "bytes_per_item": float(self.bytes_per_item),
            "tiers": {"hot": total, "cold": 0},
        }

    def save(self, path: str, format: str = "npz", include_items: bool = False) -> str:
        """Persist this index's own arrays (the source index is referenced
        by name and shape, not duplicated) as a compact ``"npz"`` or an
        mmap-able ``"dir"`` archive.

        ``include_items=True`` also stores the *permuted* item-side factor
        arrays — the list-contiguous payload a tiered loader pages per list
        (see :mod:`.tiered`).
        """
        from .archive import save_ann  # deferred: archive imports this module

        return save_ann(self, path, format, include_items)

    @classmethod
    def load(cls, path: str, index, mmap: bool = False) -> "IVFIndex":
        """Re-attach a saved index to its source index (:func:`~.archive.load_ann`)."""
        from .archive import load_ann  # deferred: archive imports this module

        return load_ann(path, index, mmap=mmap)

    # ------------------------------------------------------------------
    def queries(self, users: np.ndarray) -> np.ndarray:
        """Combined coarse-stage query vectors (float64, one row per user)."""
        users = np.asarray(users, dtype=np.int64)
        parts = [
            branch.weight * np.asarray(branch.user[users], dtype=np.float64)
            for branch in self.index.branches
        ]
        if self.centroids.shape[1] > sum(p.shape[1] for p in parts):
            parts.append(np.ones((len(users), 1)))
        return np.hstack(parts)

    def probe(self, users: np.ndarray, nprobe: Optional[int] = None) -> np.ndarray:
        """The ``(len(users), nprobe)`` list ids each user would search."""
        nprobe = self._resolve_nprobe(nprobe)
        coarse = self.queries(users) @ self.centroids.T
        if nprobe >= self.n_lists:
            return np.tile(np.arange(self.n_lists), (coarse.shape[0], 1))
        return np.argpartition(-coarse, nprobe - 1, axis=1)[:, :nprobe]

    def _resolve_nprobe(self, nprobe: Optional[int]) -> int:
        nprobe = self.nprobe if nprobe is None else int(nprobe)
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        return min(nprobe, self.n_lists)

    # ------------------------------------------------------------------
    def search(
        self,
        users: np.ndarray,
        k: int,
        nprobe: Optional[int] = None,
        scorer: Optional[str] = None,
        exclude_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        candidate_mask: Optional[np.ndarray] = None,
        tracer=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Two-stage top-``k`` for a batch of users.

        ``scorer`` defaults to the index's :attr:`default_scorer` —
        ``exact`` unless a PQ companion is attached.  ``exclude_csr`` is
        the per-user train-positive mask as ``(indptr, indices)``;
        ``candidate_mask`` a boolean ``(n_items,)`` filter mask.  Both
        apply at the fine stage: probed candidates that are excluded or
        filtered are pushed to ``-inf`` *after* scoring, so masking never
        changes which lists are probed (a filtered request probes the same
        geometry as an unfiltered one), and — for the ``pq`` scorer —
        *before* candidate selection, so the exact re-rank can never
        resurrect a masked item.

        Returns dense ``(len(users), k)`` ``(ids, scores)`` in the index
        dtype; slots past a user's surviving candidate pool carry the
        ``-1`` / ``-inf`` sentinel (same contract as the batch runtime).
        For the ``pq`` scorer the returned scores are exact (re-ranked).
        """
        scorer = self.default_scorer if scorer is None else scorer
        if scorer not in SCORERS:
            raise ValueError(f"scorer must be one of {SCORERS}, got {scorer!r}")
        if scorer == "pq" and self.pq is None:
            raise ValueError(
                "this IVF index was built without a PQ companion; "
                "rebuild with pq=True for PQ fine scoring"
            )
        users = np.asarray(users, dtype=np.int64)
        k = min(int(k), self.n_items)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if len(users) == 0:
            return np.empty((0, k), dtype=np.int64), np.empty((0, k), dtype=self.dtype)

        with maybe_span(tracer, "ann.coarse", cat="ann", attrs={"n_users": len(users)}):
            probes = self.probe(users, nprobe)
        n = len(users)

        # Masks apply at the re-rank stage, per probed list, *before* the
        # local selection — so a filtered request keeps the full fine
        # ranking of its allowed pool (never crowded out by filtered
        # items), while the probe geometry stays mask-independent.
        mask_perm = (
            None
            if candidate_mask is None
            else np.asarray(candidate_mask, dtype=bool)[self.list_items]
        )
        # Exclusion pairs, grouped by the list that holds the excluded item:
        # each (user, item) exclusion can only surface in that one list, so
        # the fine stage scatters exclusions per segment in O(1) per pair.
        ex_by_list = None
        if exclude_csr is not None:
            ex_rows, ex_cols = expand_csr_rows(*exclude_csr, users)
            if ex_rows is not None:
                ex_lists = self._item_list[ex_cols]
                group = np.argsort(ex_lists, kind="stable")
                ex_by_list = (
                    ex_lists[group],
                    ex_rows[group],
                    self._item_position[ex_cols[group]],
                )
        row_local = np.full(n, -1, dtype=np.int64)

        # Each probed list contributes at most `local_cap` survivors (its
        # masked local top-k — selection is monotone under the (score desc,
        # id asc) order, so a user's global top-k item is always inside its
        # own list's local top-k, the ShardedIndex argument).  That bounds
        # the merge pool at nprobe * cap instead of the full probed width.
        # The pq scorer over-fetches: ADC ranks are approximate, so each
        # list keeps rerank_factor * k survivors and the exact re-rank
        # below decides the final order.
        local_cap = k if scorer != "pq" else min(self.rerank_factor * k, self.n_items)
        sizes = self.list_sizes()
        pool_sizes = np.minimum(sizes, local_cap)[probes].sum(axis=1)
        width_max = int(pool_sizes.max())

        # Padded per-user candidate pools.  The id sentinel is n_items (not
        # -1) so topk_pairs_rows' (score desc, id asc) order puts padding
        # after every real item; it converts to the public -1 at the end.
        ids = np.full((n, width_max), self.n_items, dtype=np.int64)
        scores = np.full((n, width_max), NEG_INF, dtype=self.dtype)
        cursor = np.zeros(n, dtype=np.int64)

        # Group (user, probed list) pairs by list: each probed list is
        # scored once for all the users that probed it — one contiguous
        # score_branches slice per group, vectorized across those users.
        flat_rows = np.repeat(np.arange(n), probes.shape[1])
        order = np.argsort(probes.ravel(), kind="stable")
        sorted_lists = probes.ravel()[order]
        sorted_rows = flat_rows[order]
        starts = np.flatnonzero(np.r_[True, sorted_lists[1:] != sorted_lists[:-1]])
        bounds = np.r_[starts, len(sorted_lists)]

        # begin()/finish() rather than a with-block: the loop is long and
        # an exception mid-fine leaves the span unfinished, which exporters
        # simply drop.  ADC table-lookup scoring gets its own span name so
        # traces distinguish it from the exact fine stage.
        fine_span = (
            tracer.begin(
                "ann.fine.adc" if scorer == "pq" else "ann.fine", cat="ann",
                attrs={"n_segments": len(starts), "scorer": scorer},
            )
            if tracer is not None
            else None
        )
        for seg in range(len(starts)):
            lo, hi = bounds[seg], bounds[seg + 1]
            lst = int(sorted_lists[lo])
            start, stop = int(self.list_indptr[lst]), int(self.list_indptr[lst + 1])
            width = stop - start
            if width == 0:
                continue
            rows = sorted_rows[lo:hi]
            part = self._score_segment(scorer, users[rows], lst, start, stop)
            seg_ids = self.list_items[start:stop]
            if mask_perm is not None:
                part[:, ~mask_perm[start:stop]] = NEG_INF
            if ex_by_list is not None:
                ex_lists, ex_users, ex_positions = ex_by_list
                a, b = np.searchsorted(ex_lists, [lst, lst + 1])
                if b > a:
                    row_local[rows] = np.arange(len(rows))
                    local = row_local[ex_users[a:b]]
                    inside = local >= 0  # pairs whose user probed this list
                    if inside.any():
                        part[local[inside], ex_positions[a:b][inside] - start] = NEG_INF
                    row_local[rows] = -1

            if width > local_cap:
                local = _local_topk_set(part, local_cap)
                seg_out_ids = seg_ids[local]
                seg_out_scores = np.take_along_axis(part, local, axis=1)
                width = local_cap
            else:
                seg_out_ids = np.broadcast_to(seg_ids[None, :], part.shape)
                seg_out_scores = part
            cols = cursor[rows][:, None] + np.arange(width)[None, :]
            rix = rows[:, None]
            ids[rix, cols] = seg_out_ids
            scores[rix, cols] = seg_out_scores
            cursor[rows] += width

        if fine_span is not None:
            fine_span.finish()

        if scorer == "pq":
            # Exact re-rank of EVERY ADC survivor: the per-list cap above is
            # the only approximation, so recall depends on an item's ADC rank
            # within its own list (bounded width), never on its ADC rank
            # across the whole probe pool (which grows with nprobe and
            # catalog size — cutting there collapses recall at scale).
            # Masked/padding entries carry -inf ADC scores, so `valid` keeps
            # them out — re-ranking can never resurrect an excluded item.
            with maybe_span(
                tracer, "ann.rerank", cat="ann",
                attrs={"candidates": int(ids.shape[1])},
            ):
                valid = scores > NEG_INF
                exact = self._rerank_exact(users, np.where(valid, ids, 0))
                scores = np.where(valid, exact, self.dtype.type(NEG_INF))
                ids = np.where(valid, ids, self.n_items)

        with maybe_span(tracer, "ann.merge", cat="ann"):
            sel = topk_pairs_rows(ids, scores, k)
            top_ids = np.take_along_axis(ids, sel, axis=1)
            top_scores = np.take_along_axis(scores, sel, axis=1)
            top_ids = np.where(top_scores > NEG_INF, top_ids, -1)
        if top_ids.shape[1] < k:  # pool smaller than k: pad to the dense contract
            pad = k - top_ids.shape[1]
            top_ids = np.hstack([top_ids, np.full((n, pad), -1, dtype=np.int64)])
            top_scores = np.hstack(
                [top_scores, np.full((n, pad), NEG_INF, dtype=self.dtype)]
            )
        return top_ids, top_scores

    # ------------------------------------------------------------------
    # Fine-stage storage hooks (tiered layouts override these)
    # ------------------------------------------------------------------
    def _score_segment(
        self, scorer: str, users_sel: np.ndarray, lst: int, start: int, stop: int
    ) -> np.ndarray:
        """Fine-stage scores of one probed list for its probing users.

        Storage access is funneled through this hook (and
        :meth:`_rerank_exact`) so :class:`~.tiered.TieredIVFIndex` can swap
        what backs a list — hot resident copy vs cold mmap page — without
        touching the search loop above.
        """
        if scorer == "exact":
            return score_branches(self._perm_branches, users_sel, start, stop)
        return score_pq_block(
            self._perm_branches,
            self.pq,
            [codes[start:stop] for codes in self._perm_pq_codes],
            # item_const of a _perm_branch is already in permuted
            # order — slice it, never re-permute it
            [
                None if b.item_const is None else b.item_const[start:stop]
                for b in self._perm_branches
            ],
            users_sel,
            self.dtype,
            means=[m[lst] for m in self._pq_list_means],
        )

    def _rerank_exact(self, users: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Exact scores for ``(len(users), m)`` global candidate ids.

        Gathers from the permuted storage through ``_item_position`` — the
        same arrays the fine stage slices, so for a tiered index a cold
        candidate costs one page fault, not a resident copy.
        """
        positions = self._item_position[np.asarray(candidates, dtype=np.int64)]
        return score_candidates_exact(self._perm_branches, users, positions, self.dtype)


def build_ivf(
    index,
    n_lists: Optional[int] = None,
    nprobe: Optional[int] = None,
    seed: int = 0,
    iters: int = 25,
    pq: bool = False,
    pq_subspace_dim: int = 4,
    pq_centroids: int = 256,
    pq_rotation: bool = False,
    rerank_factor: int = 8,
    tol: float = 0.0,
    train_sample: Optional[int] = None,
) -> IVFIndex:
    """Build an :class:`IVFIndex` (and its residual PQ companion) from an index.

    ``n_lists`` defaults to ``~sqrt(n_items)/2`` (see
    :func:`default_n_lists` for why this substrate prefers fewer, larger
    lists) and ``nprobe`` to an eighth of the lists — the default
    operating point ``tests/serving`` and the ``serve_scan`` workload hold
    to a recall floor.  ``pq=True`` trains per-branch *residual* product
    quantization (codes encode each item minus its list's mean — the
    IVFADC construction) and makes ``pq`` the default fine scorer (ADC
    candidates + exact re-rank).  ``train_sample`` caps how many item vectors the
    k-means stages train on (a seeded subsample; the full catalog is still
    assigned in one chunked pass) and ``tol`` enables centroid-shift early
    stopping — both are what keep 1M+ item builds tractable.
    Deterministic given ``seed``.
    """
    n_lists = default_n_lists(index.n_items) if n_lists is None else int(n_lists)
    if n_lists < 1:
        raise ValueError(f"n_lists must be >= 1, got {n_lists}")
    n_lists = min(n_lists, index.n_items)
    vectors = combined_item_vectors(index.branches)
    if train_sample is not None and vectors.shape[0] > int(train_sample):
        rng = np.random.default_rng(seed)
        sample = np.sort(rng.choice(vectors.shape[0], int(train_sample), replace=False))
        centroids, _ = kmeans(
            vectors[sample], min(n_lists, len(sample)), seed=seed, iters=iters, tol=tol
        )
        labels, _ = assign_labels(vectors, centroids)
    else:
        centroids, labels = kmeans(vectors, n_lists, seed=seed, iters=iters, tol=tol)
    n_lists = centroids.shape[0]

    # Contiguous list layout, item ids ascending within each list so the
    # fine stage's tie-breaking matches exact search deterministically.
    perm = np.lexsort((np.arange(index.n_items), labels))
    counts = np.bincount(labels, minlength=n_lists)
    indptr = np.zeros(n_lists + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    nprobe = default_nprobe(n_lists) if nprobe is None else int(nprobe)
    nprobe = max(1, min(nprobe, n_lists))
    pq_branches = None
    pq_list_means = None
    if pq:
        # Residual PQ (the IVFADC construction): codebooks quantize each
        # item *minus its list's mean factor row*.  Items in one list are
        # similar by construction, so raw-vector codebooks would spend
        # their 8 bits re-describing the coarse structure the list
        # assignment already captured — residuals put all the precision on
        # the within-list differences that decide ADC candidate ranks.
        pq_branches = []
        pq_list_means = []
        for b, branch in enumerate(index.branches):
            item = np.asarray(branch.item, dtype=np.float64)
            # a list can be empty under subsampled training: its mean stays zero
            means = cluster_sums(item, labels, n_lists) / np.maximum(counts, 1)[:, None]
            pq_branches.append(
                build_pq_branch(
                    item - means[labels],
                    subspace_dim=pq_subspace_dim,
                    n_centroids=pq_centroids,
                    rotation=pq_rotation,
                    seed=seed + 104729 * b,
                    iters=iters,
                    tol=tol if tol > 0 else 1e-4,
                    train_sample=train_sample,
                )
            )
            pq_list_means.append(means)
    return IVFIndex(
        index,
        centroids=centroids,
        list_indptr=indptr,
        list_items=perm,
        nprobe=nprobe,
        seed=seed,
        pq=pq_branches,
        rerank_factor=rerank_factor,
        pq_list_means=pq_list_means,
    )
