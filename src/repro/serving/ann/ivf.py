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
   dtype.  The index keeps no item factors of its own: once per ``search``
   call, each probed list's rows are gathered from the source index into
   scratch that belongs to that call, sized to ``gemm_cols`` of the widest
   list, and scored by one :func:`~repro.scoring.score_branches` call per
   (list, probing-users) group — THE scoring kernel.  The per-user
   candidate pools merge through
   :func:`~repro.eval.topk.topk_pairs_rows`, the same deterministic
   (score desc, item id asc) order every exact path uses.

Because stage 2 is exact and the lists partition the catalog, probing all
lists (``nprobe >= n_lists``) makes the candidate pool the full catalog
and the ranking exact search's, score bits included — the property the
test suite pins.  Both stages, the ``pq`` scorer's lookup tables included,
run their products at :func:`~repro.scoring.gemm_rows` height: a user's
probes and scores do not depend on who shared its batch or a list's group.
Smaller ``nprobe`` trades recall for time along a measured curve
(docs/performance.md).

An optional residual PQ companion (one :class:`~.pq.PQBranch` per branch,
``build_ivf(..., pq=True)``) supplies a ``pq`` scorer next to the exact
one: each probed list's codes and constants are gathered like the exact
stage's rows and scored by ADC table lookups (16-64x smaller item
payload), each list keeps its ADC top ``rerank_factor * k``, and *every*
survivor is then re-scored exactly before the final
top-``k`` — ADC chooses candidates per list, exact scoring orders them,
so recall depends only on an item's ADC rank inside its own
(bounded-width) list and keeps holding as catalogs grow.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...archive import mapped_empty
from ...eval.topk import NEG_INF, denied_rows, partition_topk_rows, topk_pairs_rows
from ...obs.trace import maybe_span
from ...scoring import ScoreBranch, branches_dtype, expand_csr_rows, gemm_cols, padded_rows, score_branches
from .kmeans import cluster_sums, kmeans
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
    so no second catalog-sized float64 array is ever held).

    The output is :func:`~repro.archive.mapped_empty`, a private anonymous
    mapping whose pages go back to the system when it is released, not a
    malloc heap block whose placement moves the process's peak resident
    memory from run to run."""
    const: Optional[np.ndarray] = None
    for branch in branches:
        if branch.item_const is not None:
            term = branch.weight * np.asarray(branch.item_const[start:], dtype=np.float64)
            const = term if const is None else const + term
    widths = [b.item.shape[1] for b in branches]
    rows, cols = len(branches[0].item[start:]), sum(widths) + (const is not None)
    out = mapped_empty((rows, cols), np.float64)
    for branch, stop in zip(branches, np.cumsum(widths)):
        out[:, stop - branch.item.shape[1] : stop] = branch.item[start:]
    if const is not None:
        out[:, -1] = const
    return out


class IVFIndex:
    """Cluster-pruned two-stage search over an :class:`EmbeddingIndex`.

    Wraps the source index and shares all of its factors; owns only the
    coarse centroids, the list layout (``list_items`` must be a
    permutation of the catalog) and its inverse maps.  ``nprobe`` is the
    default operating point; every :meth:`search` can override it per call.
    ``pq`` is the optional residual PQ companion: one
    :class:`~.pq.PQBranch` per branch, coded in catalog order against
    ``pq_list_means``.  Only :class:`~.tiered.TieredIVFIndex` keeps a
    list-ordered item payload.
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
        sizes = np.diff(self.list_indptr)
        if self.list_indptr[0] != 0 or self.list_indptr[-1] != self.n_items or (sizes < 0).any():
            raise ValueError("list_indptr must rise from 0 to n_items")
        self.nprobe = int(nprobe)
        if not 1 <= self.nprobe <= self.n_lists:
            raise ValueError(f"nprobe must be in [1, {self.n_lists}], got {nprobe}")

        # Inverse layout maps: for any global item id, which list holds it
        # and at which slot of the list order — O(1) lookups that let
        # exclusion masks scatter straight into the fine stage's scored
        # blocks instead of key-searching every candidate.  Filling the
        # slot map proves ``list_items`` a permutation of the catalog, which
        # is what lets the fine stage gather with ``mode="clip"``.
        items = self.list_items
        if items.shape != (self.n_items,) or (
            self.n_items and (items.min() < 0 or items.max() >= self.n_items)
        ):
            raise ValueError("list_items must be a permutation of range(n_items)")
        self._item_position = np.full(self.n_items, -1, dtype=np.int64)
        self._item_position[items] = np.arange(self.n_items)
        if (self._item_position < 0).any():
            raise ValueError("list_items must be a permutation of range(n_items)")
        self._item_list = np.empty(self.n_items, dtype=np.int64)
        self._item_list[items] = np.repeat(np.arange(self.n_lists), sizes)

        self.pq = pq
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
        """Everything this index holds of its own: centroids, list layout
        and its inverse maps, and the PQ codes, codebooks and list means.
        The item factors belong to the source index and are not counted."""
        total = sum(
            a.nbytes
            for a in (
                self.centroids, self.list_indptr, self.list_items,
                self._item_position, self._item_list,
            )
        )
        if self.pq is not None:
            total += sum(pb.code_bytes() + pb.table_bytes() for pb in self.pq)
            total += sum(m.nbytes for m in self._pq_list_means)
        return total

    @property
    def bytes_per_item(self) -> float:
        """Item-side bytes per catalog item for the *default* fine scorer
        (f32/f64 factors for ``exact``, uint8 PQ codes for ``pq``) — the
        number the compression ladder compares."""
        if self.default_scorer == "pq":
            payload = sum(pb.code_bytes() for pb in self.pq)
        else:
            payload = sum(b.item.nbytes for b in self.index.branches)
        return payload / max(1, self.n_items)

    def memory_report(self) -> dict:
        """The report shape the serving stats gauge publishes: what this
        index owns, all of it resident."""
        total = int(self._structure_bytes())
        return {
            "kind": self.kind,
            "bytes_total": total,
            "bytes_per_item": float(self.bytes_per_item),
            "tiers": {"hot": total, "cold": 0},
        }

    def save(self, path: str, format: str = "dir", include_items: bool = False) -> str:
        """Persist this index's own arrays (the source index is referenced
        by name and shape, not duplicated) as an mmap-able archive directory.

        ``include_items=True`` also stores the item-side factor arrays in
        list order, gathered at write time — the list-contiguous payload a
        tiered loader pages per list (see :mod:`.tiered`).  ``format`` accepts only ``"dir"``, the one
        container; it stays so callers that name the container keep running.
        """
        from .archive import save_ann  # deferred: archive imports this module

        if format != "dir":
            raise ValueError(f"format must be 'dir', the only container, got {format!r}")
        return save_ann(self, path, include_items)

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
        users = np.asarray(users, dtype=np.int64)
        queries = self.queries(padded_rows(users, self.n_lists))
        coarse = (queries @ self.centroids.T)[: len(users)]
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
        mask_rows: Optional[np.ndarray] = None,
        tracer=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Two-stage top-``k`` for a batch of users.

        ``scorer`` defaults to the index's :attr:`default_scorer` —
        ``exact`` unless a PQ companion is attached.  ``exclude_csr`` is
        the per-user train-positive mask as ``(indptr, indices)``;
        ``candidate_mask`` the boolean filter allow-mask: one ``(n_items,)``
        mask for every row, or an ``(n_masks, n_items)`` stack with
        ``mask_rows`` naming each row's mask (permuted to list order once
        per call; a segment masks its rows with their own slices).  Both
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
        denied, mask_rows = denied_rows(candidate_mask, mask_rows, n)
        if denied is not None:
            denied = denied[:, self.list_items]
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
        scratch = self._fine_scratch(scorer)
        for seg in range(len(starts)):
            lo, hi = bounds[seg], bounds[seg + 1]
            lst = int(sorted_lists[lo])
            start, stop = int(self.list_indptr[lst]), int(self.list_indptr[lst + 1])
            width = stop - start
            if width == 0:
                continue
            rows = sorted_rows[lo:hi]
            part = self._score_segment(scorer, users[rows], lst, start, stop, scratch)
            seg_ids = self.list_items[start:stop]
            if denied is not None:
                part[denied[mask_rows[rows], start:stop]] = NEG_INF
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
                seg_out_scores = part[np.arange(len(rows))[:, None], local]
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
            rix = np.arange(n)[:, None]
            top_ids, top_scores = ids[rix, sel], scores[rix, sel]
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
    def _fine_scratch(self, scorer: str, rows: Optional[int] = None):
        """One search call's gather targets, ``gemm_cols(rows)`` rows each
        (default: the widest list's), so concurrent calls share no buffer.

        ``exact``: the source branches with scratch item sides, so a
        gathered list scores through :func:`score_branches` as one
        contiguous block.  Its product's ``gemm_cols`` padding items are
        zeros or rows gathered earlier in the call: always finite, and no
        kept column reads them.  ``pq``: per branch, a code buffer and an
        item-constant buffer (``None`` where the branch has no constant).
        """
        rows = gemm_cols(int(self.list_sizes().max()) if rows is None else int(rows))

        def buffer(source):
            return None if source is None else np.zeros((rows,) + source.shape[1:], source.dtype)

        if scorer == "exact":
            return [
                ScoreBranch(
                    user=branch.user,
                    item=buffer(branch.item),
                    item_const=buffer(branch.item_const),
                    user_const=branch.user_const,
                    weight=branch.weight,
                )
                for branch in self.index.branches
            ]
        return [
            (buffer(pb.codes), buffer(branch.item_const))
            for branch, pb in zip(self.index.branches, self.pq)
        ]

    def _score_segment(
        self, scorer: str, users_sel: np.ndarray, lst: int, start: int, stop: int,
        scratch=None,
    ) -> np.ndarray:
        """Fine-stage scores of one probed list for its probing users.

        The list's rows are gathered from the source index into
        ``scratch`` (:meth:`_fine_scratch`; made for this list alone when
        not given).  Storage access is funneled through this hook (and
        :meth:`_rerank_exact`) so :class:`~.tiered.TieredIVFIndex` can
        score its own list-ordered payload without touching the search
        loop above.
        """
        width = stop - start
        scratch = self._fine_scratch(scorer, width) if scratch is None else scratch
        slots = self.list_items[start:stop]
        if scorer == "exact":
            for branch, block in zip(self.index.branches, scratch):
                branch.item.take(slots, axis=0, out=block.item[:width], mode="clip")
                if branch.item_const is not None:
                    branch.item_const.take(slots, out=block.item_const[:width], mode="clip")
            return score_branches(scratch, users_sel, 0, width)
        codes, consts = [], []
        for branch, pb, (code_buf, const_buf) in zip(self.index.branches, self.pq, scratch):
            codes.append(pb.codes.take(slots, axis=0, out=code_buf[:width], mode="clip"))
            consts.append(
                None
                if const_buf is None
                else branch.item_const.take(slots, out=const_buf[:width], mode="clip")
            )
        return score_pq_block(
            self.index.branches,
            self.pq,
            codes,
            consts,
            users_sel,
            self.dtype,
            means=[m[lst] for m in self._pq_list_means],
        )

    def _rerank_exact(self, users: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Exact scores for ``(len(users), m)`` global candidate ids,
        gathered straight from the source index."""
        return score_candidates_exact(self.index.branches, users, candidates, self.dtype)


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
) -> IVFIndex:
    """Build an :class:`IVFIndex` (and its residual PQ companion) from an index.

    ``n_lists`` defaults to ``~sqrt(n_items)/2`` (see
    :func:`default_n_lists` for why this substrate prefers fewer, larger
    lists) and ``nprobe`` to an eighth of the lists — the default
    operating point ``tests/serving`` and the ``serve_scan`` workload hold
    to a recall floor.  ``pq=True`` trains per-branch *residual* product
    quantization (codes encode each item minus its list's mean — the
    IVFADC construction) and makes ``pq`` the default fine scorer (ADC
    candidates + exact re-rank).  The coarse k-means runs all ``iters``
    iterations over the whole catalog; the PQ codebooks stop early at
    :func:`~.pq.build_pq_branch`'s default ``tol``.  Deterministic given
    ``seed``.
    """
    n_lists = default_n_lists(index.n_items) if n_lists is None else int(n_lists)
    if n_lists < 1:
        raise ValueError(f"n_lists must be >= 1, got {n_lists}")
    n_lists = min(n_lists, index.n_items)
    vectors = combined_item_vectors(index.branches)
    centroids, labels = kmeans(vectors, n_lists, seed=seed, iters=iters)

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
            # k-means reseeds empty clusters, so every count is >= 1
            means = cluster_sums(item, labels, n_lists) / counts[:, None]
            pq_branches.append(
                build_pq_branch(
                    item - means[labels],
                    subspace_dim=pq_subspace_dim,
                    n_centroids=pq_centroids,
                    rotation=pq_rotation,
                    seed=seed + 104729 * b,
                    iters=iters,
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
