"""Hot/cold tiered memory layout for IVF indexes.

A plain :class:`~.ivf.IVFIndex` keeps no item factors of its own: it
gathers each probed list's rows from its resident source index.  A
:class:`TieredIVFIndex` is the one index kind with a list-ordered item
payload of its own: it loads an ``include_items`` archive (one mmap-able
``.npy`` per array) and splits the catalog's IVF lists into two tiers:

* **hot** — lists carrying the most probe traffic are materialized into
  RAM (contiguous per-list copies of the list-ordered factor slices), so
  the exact fine stage for popular lists never touches the page cache;
* **cold** — every other list stays an mmap view; the first probe of a
  cold list page-faults it in and the OS pages it back out under memory
  pressure.  Loaded from an archive, no code path gathers a full-catalog
  copy.

Hot selection is by **access mass**: probe a deterministic sample of
users at the index's default ``nprobe``, count how often each list is
probed, and admit lists in (mass desc, list id asc) order until the
budget — :class:`TieredIndexConfig.hot_fraction` of the item payload, or
an explicit ``memory_ceiling_bytes`` for *everything resident* — is
exhausted.  The always-resident floor (centroids, list layout, inverse
maps, PQ codes and codebooks) is charged against the ceiling first,
so the reported hot tier is an honest upper bound on what this index
keeps in RAM.

The small arrays stay resident on purpose: PQ codes for a 1M-item
catalog are ~16 MB where the f32 factors are ~256 MB, which is exactly
the compression-ladder argument (``docs/performance.md``) — ADC scoring
runs entirely against resident codes, and only the exact re-rank of the
final candidate pool touches (pages) the cold factor slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...scoring import ScoreBranch, score_branches
from .ivf import IVFIndex
from .pq import score_candidates_exact

#: deterministic seed offset for the access-mass probe sample, so tier
#: selection never aliases the build seed's other draws
_PROBE_SEED_OFFSET = 0x7EA5


@dataclass
class TieredIndexConfig:
    """How much of a tiered index may stay resident.

    Exactly one of ``hot_fraction`` (fraction of the item payload bytes
    to pin hot, in ``[0, 1]``) or ``memory_ceiling_bytes`` (hard ceiling
    on *all* resident bytes: the fixed floor plus hot copies) must be
    set.  ``probe_sample`` sizes the deterministic user sample whose
    probe counts define each list's access mass.
    """

    hot_fraction: Optional[float] = None
    memory_ceiling_bytes: Optional[int] = None
    probe_sample: int = 4096

    def __post_init__(self) -> None:
        if (self.hot_fraction is None) == (self.memory_ceiling_bytes is None):
            raise ValueError(
                "set exactly one of hot_fraction or memory_ceiling_bytes"
            )
        if self.hot_fraction is not None and not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1], got {self.hot_fraction}")
        if self.memory_ceiling_bytes is not None and self.memory_ceiling_bytes < 0:
            raise ValueError("memory_ceiling_bytes must be >= 0")
        if self.probe_sample < 1:
            raise ValueError("probe_sample must be >= 1")


class TieredIVFIndex(IVFIndex):
    """IVF search over mmap-backed storage with a resident hot tier.

    Built by :meth:`load` from an archive saved with
    ``IVFIndex.save(path, include_items=True)``, whose list-ordered item
    arrays arrive as ``perm_items`` (one ``(item, item_const)`` pair per
    branch); without them the payload is gathered from the source index
    into RAM.  Search semantics are identical to the parent (same scorers,
    same masks, same sentinels — the storage hooks only change *where* a
    list's bytes live, never their values), so results are bit-identical
    to the non-tiered index built from the same archive.
    """

    def __init__(
        self,
        *args,
        config: TieredIndexConfig,
        perm_items: Optional[Sequence[Tuple[np.ndarray, Optional[np.ndarray]]]] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.config = config
        if perm_items is None:
            perm_items = [
                (
                    branch.item[self.list_items],
                    None if branch.item_const is None else branch.item_const[self.list_items],
                )
                for branch in self.index.branches
            ]
        if len(perm_items) != len(self.index.branches):
            raise ValueError("one list-ordered item array pair per branch")
        self._perm_branches = [
            ScoreBranch(
                user=branch.user,
                item=item,
                item_const=item_const,
                user_const=branch.user_const,
                weight=branch.weight,
            )
            for branch, (item, item_const) in zip(self.index.branches, perm_items)
        ]
        # Per-branch byte size of one item row (factors + optional const).
        self._row_bytes = [
            branch.item.itemsize * branch.item.shape[1]
            + (branch.item_const.itemsize if branch.item_const is not None else 0)
            for branch in self._perm_branches
        ]
        self._select_hot()

    # ------------------------------------------------------------------
    # Tier selection
    # ------------------------------------------------------------------
    def access_mass(self) -> np.ndarray:
        """Probe-hit counts per list over a deterministic user sample."""
        rng = np.random.default_rng(self.seed + _PROBE_SEED_OFFSET)
        sample = min(int(self.config.probe_sample), self.n_users)
        users = np.sort(rng.choice(self.n_users, sample, replace=False))
        probes = self.probe(users)
        return np.bincount(probes.ravel(), minlength=self.n_lists)

    def _list_bytes(self) -> np.ndarray:
        """Item-payload bytes each list would cost to make resident."""
        sizes = self.list_sizes()
        per_row = sum(self._row_bytes)
        return sizes.astype(np.int64) * per_row

    def fixed_resident_bytes(self) -> int:
        """The always-resident floor: everything but the factor payload."""
        return int(self._structure_bytes())

    def _select_hot(self) -> None:
        mass = self.access_mass()
        list_bytes = self._list_bytes()
        if self.config.memory_ceiling_bytes is not None:
            budget = max(0, int(self.config.memory_ceiling_bytes) - self.fixed_resident_bytes())
        else:
            budget = int(self.config.hot_fraction * int(list_bytes.sum()))
        # (mass desc, id asc): heaviest lists first, deterministic on ties.
        order = np.lexsort((np.arange(self.n_lists), -mass))
        hot: List[int] = []
        spent = 0
        for lst in order:
            cost = int(list_bytes[lst])
            if spent + cost > budget:
                continue
            spent += cost
            hot.append(int(lst))
        self.is_hot = np.zeros(self.n_lists, dtype=bool)
        self.is_hot[hot] = True
        self.hot_lists = np.sort(np.asarray(hot, dtype=np.int64))
        self._hot_bytes = spent
        # Materialize the hot lists: one contiguous RAM copy per
        # (list, branch) of the list-ordered slice, prebuilt as ScoreBranch
        # objects so the fine stage costs zero per-request setup.
        self._hot_branches: Dict[int, List[ScoreBranch]] = {}
        for lst in hot:
            start, stop = int(self.list_indptr[lst]), int(self.list_indptr[lst + 1])
            self._hot_branches[lst] = [
                ScoreBranch(
                    user=branch.user,
                    item=np.array(branch.item[start:stop], copy=True),
                    item_const=(
                        None
                        if branch.item_const is None
                        else np.array(branch.item_const[start:stop], copy=True)
                    ),
                    user_const=branch.user_const,
                    weight=branch.weight,
                )
                for branch in self._perm_branches
            ]

    # ------------------------------------------------------------------
    # Storage hooks (the only behavioural difference from IVFIndex)
    # ------------------------------------------------------------------
    def _fine_scratch(self, scorer: str, rows: Optional[int] = None):
        # the exact fine stage scores this index's own slices, gathering nothing
        return None if scorer == "exact" else super()._fine_scratch(scorer, rows)

    def _score_segment(
        self, scorer: str, users_sel: np.ndarray, lst: int, start: int, stop: int,
        scratch=None,
    ) -> np.ndarray:
        # ADC reads only resident codes and constants, as the parent does:
        # only the exact fine stage distinguishes hot (resident slice) from
        # cold (mmap page-in).
        if scorer != "exact":
            return super()._score_segment(scorer, users_sel, lst, start, stop, scratch)
        if self.is_hot[lst]:
            return score_branches(self._hot_branches[lst], users_sel, 0, stop - start)
        return score_branches(self._perm_branches, users_sel, start, stop)

    def _rerank_exact(self, users: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        # through the list-ordered payload: a cold candidate costs one page
        # fault, not a resident copy
        positions = self._item_position[np.asarray(candidates, dtype=np.int64)]
        return score_candidates_exact(self._perm_branches, users, positions, self.dtype)

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return "tiered-" + super().kind

    def memory_report(self) -> dict:
        fixed = self.fixed_resident_bytes()
        cold = int(self._list_bytes()[~self.is_hot].sum())
        hot = fixed + self._hot_bytes
        return {
            "kind": self.kind,
            "bytes_total": int(hot + cold),
            "bytes_per_item": float(super().bytes_per_item),
            "tiers": {"hot": int(hot), "cold": cold},
            "hot_lists": int(self.is_hot.sum()),
            "n_lists": int(self.n_lists),
            "memory_ceiling_bytes": self.config.memory_ceiling_bytes,
        }

    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        path: str,
        index,
        config: TieredIndexConfig,
        mmap: bool = True,
    ) -> "TieredIVFIndex":
        """Open an ``include_items`` archive as a tiered index.

        ``mmap=True`` (the default, and the point) keeps the list-ordered
        factor payload on disk; only the selected hot lists are copied
        into RAM.
        """
        from .archive import load_ann  # deferred: archive imports this module

        return load_ann(path, index, mmap=mmap, tiered=config)
