"""Negative sampling for BPR training.

For each observed (user, item) pair the sampler draws ``rate`` unobserved
items uniformly (the paper uses negative sampling rate 1).  Rejection
sampling is vectorized end to end: candidate items are drawn for the whole
batch, membership in the user's training positives is tested against a
sorted packed-key array with ``np.searchsorted`` (no per-element Python
loop), and only the collisions are re-drawn.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..arrays import sorted_unique
from .dataset import Dataset


class NegativeSampler:
    """Draws (user, pos_item, neg_item) triples from a dataset's train split."""

    def __init__(self, dataset: Dataset, rng: np.random.Generator, rate: int = 1) -> None:
        if rate < 1:
            raise ValueError(f"negative sampling rate must be >= 1, got {rate}")
        self.dataset = dataset
        self.rng = rng
        self.rate = rate
        if dataset.n_items <= 1:
            raise ValueError("negative sampling needs at least 2 items")
        # Packed-key positive set: (user, item) -> user * n_items + item,
        # deduplicated and sorted, so a batch membership test is one
        # searchsorted over int64 keys.  Equivalent to a CSR (indptr,
        # indices) pair but with the row lookup folded into the key.
        n_items = dataset.n_items
        keys = dataset.train.users.astype(np.int64) * n_items + dataset.train.items
        self._pos_keys = sorted_unique(keys)
        # Guard against pathological users who interacted with everything.
        counts = np.bincount(self._pos_keys // n_items, minlength=dataset.n_users)
        if counts.size and counts.max() >= n_items:
            worst = int(np.argmax(counts))
            raise ValueError(f"user {worst} has interacted with every item; cannot sample")

    def _is_positive(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorized membership of (user, item) pairs in the train positives."""
        if len(self._pos_keys) == 0:
            return np.zeros(len(users), dtype=bool)
        candidates = users * np.int64(self.dataset.n_items) + items
        slots = np.searchsorted(self._pos_keys, candidates)
        slots_clipped = np.minimum(slots, len(self._pos_keys) - 1)
        return (slots < len(self._pos_keys)) & (self._pos_keys[slots_clipped] == candidates)

    def sample_negatives(self, users: np.ndarray) -> np.ndarray:
        """One negative item per user in ``users`` (vectorized rejection)."""
        users = np.asarray(users, dtype=np.int64)
        negatives = self.rng.integers(0, self.dataset.n_items, size=len(users))
        pending = self._is_positive(users, negatives)
        # Each round re-draws only colliding entries; terminates with
        # probability 1 because every user has at least one non-positive item.
        while pending.any():
            redraw = self.rng.integers(0, self.dataset.n_items, size=int(pending.sum()))
            negatives[pending] = redraw
            idx = np.flatnonzero(pending)
            pending[idx] = self._is_positive(users[idx], negatives[idx])
        return negatives

    def epoch_batches(
        self, batch_size: int, shuffle: bool = True
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (users, pos_items, neg_items) mini-batches covering the train split.

        With ``rate > 1`` the positive pairs are repeated ``rate`` times, each
        repetition paired with an independent negative draw.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        users = np.repeat(self.dataset.train.users, self.rate)
        items = np.repeat(self.dataset.train.items, self.rate)
        order = self.rng.permutation(len(users)) if shuffle else np.arange(len(users))
        users, items = users[order], items[order]
        for start in range(0, len(users), batch_size):
            batch_users = users[start : start + batch_size]
            batch_pos = items[start : start + batch_size]
            batch_neg = self.sample_negatives(batch_users)
            yield batch_users, batch_pos, batch_neg
