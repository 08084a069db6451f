"""The frozen serving artifact: branch factors + item catalog + exclusions.

An :class:`EmbeddingIndex` is everything the online path needs, decoupled
from the model that produced it:

* the :class:`~repro.scoring.ScoreBranch` factors (graph propagation
  already applied — scoring is dense matmuls only);
* the item catalog columns used by candidate filters (category, price
  level, raw price);
* each user's train-positive items in CSR form (the "already bought"
  exclusion mask);
* item popularity and the global price-level profile (cold-start fallback).

Scoring reproduces :meth:`Recommender.predict_scores` bit-for-bit for every
exporting model: the branch loop applies the same operations in the same
order the models' vectorized inference paths use.

Serialization reuses the checkpoint archive layer
(:mod:`repro.archive`) with its own ``kind`` tag, so checkpoints
and indexes are mutually rejecting on load.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .. import archive
from ..scoring import ScoreBranch, score_branches

INDEX_KIND = "embedding_index"

#: bump when the array layout changes incompatibly
FORMAT_VERSION = 1


class EmbeddingIndex:
    """Frozen per-branch embeddings plus serving-side item/user metadata."""

    def __init__(
        self,
        branches: List[ScoreBranch],
        item_categories: np.ndarray,
        item_price_levels: np.ndarray,
        n_price_levels: int,
        n_categories: int,
        exclude_indptr: np.ndarray,
        exclude_indices: np.ndarray,
        item_popularity: np.ndarray,
        item_raw_prices: Optional[np.ndarray] = None,
        model_name: str = "unknown",
        extra: Optional[Dict] = None,
    ) -> None:
        if not branches:
            raise ValueError("an index needs at least one score branch")
        n_users = branches[0].user.shape[0]
        n_items = branches[0].item.shape[0]
        for branch in branches:
            if branch.user.shape[0] != n_users or branch.item.shape[0] != n_items:
                raise ValueError("branches disagree on user/item counts")

        self.branches = list(branches)
        self.n_users = n_users
        self.n_items = n_items
        self.model_name = model_name
        self.extra = dict(extra or {})
        self.item_categories = np.asarray(item_categories, dtype=np.int64)
        self.item_price_levels = np.asarray(item_price_levels, dtype=np.int64)
        self.n_price_levels = int(n_price_levels)
        self.n_categories = int(n_categories)
        if self.item_categories.shape != (n_items,) or self.item_price_levels.shape != (n_items,):
            raise ValueError("item attribute arrays must have shape (n_items,)")

        self.exclude_indptr = np.asarray(exclude_indptr, dtype=np.int64)
        self.exclude_indices = np.asarray(exclude_indices, dtype=np.int64)
        if self.exclude_indptr.shape != (n_users + 1,):
            raise ValueError("exclude_indptr must have shape (n_users + 1,)")

        self.item_popularity = np.asarray(item_popularity, dtype=np.float64)
        if self.item_popularity.shape != (n_items,):
            raise ValueError("item_popularity must have shape (n_items,)")
        self.item_raw_prices = (
            None if item_raw_prices is None else np.asarray(item_raw_prices, dtype=np.float64)
        )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(self, users: np.ndarray) -> np.ndarray:
        """Dense ``(len(users), n_items)`` score matrix from frozen factors."""
        return self.score_block(users, 0, self.n_items)

    def score_block(self, users: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Scores against the contiguous item block ``[start, stop)``.

        ``score`` is the full-range special case.  Scoring is
        :func:`~repro.scoring.score_branches` — the
        *same function* the live models' ``predict_scores`` runs — so
        full-range scores are bit-identical to the live model by
        construction.
        """
        return score_branches(self.branches, users, start, stop)

    def excluded_items(self, user: int) -> np.ndarray:
        """The user's train-positive item ids (sorted ascending)."""
        return self.exclude_indices[self.exclude_indptr[user] : self.exclude_indptr[user + 1]]

    def train_interaction_count(self, user: int) -> int:
        return int(self.exclude_indptr[user + 1] - self.exclude_indptr[user])

    def is_warm(self, user: int) -> bool:
        """Known user with at least one training interaction."""
        return 0 <= user < self.n_users and self.train_interaction_count(user) > 0

    def price_level_profile(self) -> np.ndarray:
        """Global train-interaction share per price level (sums to 1)."""
        counts = np.zeros(self.n_price_levels)
        np.add.at(counts, self.item_price_levels, self.item_popularity)
        total = counts.sum()
        return counts / total if total > 0 else np.full(self.n_price_levels, 1.0 / self.n_price_levels)

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of the frozen factors."""
        total = self.exclude_indices.nbytes + self.exclude_indptr.nbytes
        for branch in self.branches:
            total += branch.user.nbytes + branch.item.nbytes
            if branch.item_const is not None:
                total += branch.item_const.nbytes
            if branch.user_const is not None:
                total += branch.user_const.nbytes
        return total

    # ------------------------------------------------------------------
    # Serialization (the repro.archive layer)
    # ------------------------------------------------------------------
    def save(self, path: str, format: str = "dir") -> str:
        """Persist the index as an archive directory that :meth:`load` can
        memory-map (``mmap=True``) — what the lifecycle store publishes.

        ``format`` accepts only ``"dir"``, the one container; it stays so
        callers that name the container keep running.
        """
        if format != "dir":
            raise ValueError(f"format must be 'dir', the only container, got {format!r}")
        arrays: Dict[str, np.ndarray] = {
            "item_categories": self.item_categories,
            "item_price_levels": self.item_price_levels,
            "exclude_indptr": self.exclude_indptr,
            "exclude_indices": self.exclude_indices,
            "item_popularity": self.item_popularity,
        }
        if self.item_raw_prices is not None:
            arrays["item_raw_prices"] = self.item_raw_prices
        branch_meta = []
        for i, branch in enumerate(self.branches):
            arrays[f"branch{i}.user"] = branch.user
            arrays[f"branch{i}.item"] = branch.item
            if branch.item_const is not None:
                arrays[f"branch{i}.item_const"] = branch.item_const
            if branch.user_const is not None:
                arrays[f"branch{i}.user_const"] = branch.user_const
            branch_meta.append(
                {
                    "weight": float(branch.weight),
                    "dim": int(branch.item.shape[1]),
                    "has_item_const": branch.item_const is not None,
                    "has_user_const": branch.user_const is not None,
                }
            )
        metadata = {
            archive.KIND_KEY: INDEX_KIND,
            "format_version": FORMAT_VERSION,
            "model_name": self.model_name,
            "n_users": self.n_users,
            "n_items": self.n_items,
            "n_categories": self.n_categories,
            "n_price_levels": self.n_price_levels,
            "branches": branch_meta,
            "extra": self.extra,
        }
        return archive.write_archive(path, arrays, metadata)

    @classmethod
    def load(cls, path: str, mmap: bool = False) -> "EmbeddingIndex":
        """Load an index saved by :meth:`save`.

        ``mmap=True`` memory-maps the arrays instead of copying them into
        process memory — attaching is near-instant and concurrent processes
        share one page-cache copy.
        """
        metadata = archive.read_archive_metadata(path)
        archive.check_header(
            path, metadata, INDEX_KIND, "an embedding index", FORMAT_VERSION
        )
        arrays = archive.read_archive_arrays(path, mmap=mmap)
        branches = []
        for i, meta in enumerate(metadata["branches"]):
            branches.append(
                ScoreBranch(
                    user=arrays[f"branch{i}.user"],
                    item=arrays[f"branch{i}.item"],
                    item_const=arrays.get(f"branch{i}.item_const"),
                    user_const=arrays.get(f"branch{i}.user_const"),
                    weight=meta["weight"],
                )
            )
        return cls(
            branches=branches,
            item_categories=arrays["item_categories"],
            item_price_levels=arrays["item_price_levels"],
            n_price_levels=metadata["n_price_levels"],
            n_categories=metadata["n_categories"],
            exclude_indptr=arrays["exclude_indptr"],
            exclude_indices=arrays["exclude_indices"],
            item_popularity=arrays["item_popularity"],
            item_raw_prices=arrays.get("item_raw_prices"),
            model_name=metadata["model_name"],
            extra=metadata.get("extra") or {},
        )
