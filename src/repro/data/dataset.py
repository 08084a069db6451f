"""Dataset containers for price-aware recommendation.

The paper's input (Section II-B) is the triple

* interaction matrix ``R`` (implicit feedback, ``R_ui = 1`` means purchase),
* item prices ``p`` (discretized to levels), and
* item categories ``c``.

:class:`InteractionTable` stores raw (user, item, timestamp) events;
:class:`Dataset` bundles a train/validation/test split with the item catalog
and exposes the index structures every model needs (positive-item sets,
sparse matrices, per-item attribute arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from ..arrays import sorted_unique


@dataclass
class InteractionTable:
    """Columnar (user, item, timestamp) event log.

    All three arrays have equal length; timestamps order events for the
    temporal split.  Users/items are contiguous integer ids.
    """

    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self) -> None:
        self.users = np.asarray(self.users, dtype=np.int64)
        self.items = np.asarray(self.items, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if not (len(self.users) == len(self.items) == len(self.timestamps)):
            raise ValueError(
                "users/items/timestamps must have equal length, got "
                f"{len(self.users)}/{len(self.items)}/{len(self.timestamps)}"
            )

    def __len__(self) -> int:
        return len(self.users)

    def sorted_by_time(self) -> "InteractionTable":
        """Return a copy ordered by timestamp (stable)."""
        order = np.argsort(self.timestamps, kind="stable")
        return InteractionTable(self.users[order], self.items[order], self.timestamps[order])

    def select(self, mask: np.ndarray) -> "InteractionTable":
        """Return the subset of rows where ``mask`` is True (or an index array)."""
        return InteractionTable(self.users[mask], self.items[mask], self.timestamps[mask])

    def deduplicate(self) -> "InteractionTable":
        """Keep the earliest event per (user, item) pair."""
        table = self.sorted_by_time()
        # One int64 key per pair; ``return_index`` gives each key's first
        # (earliest, since the table is time-ordered) row.
        keys = table.users * (table.items.max(initial=0) + 1) + table.items
        _, first = sorted_unique(keys, return_index=True)
        return table.select(np.sort(first))


@dataclass
class ItemCatalog:
    """Per-item side information: raw price, price level, category.

    ``price_levels`` is filled by a quantizer (`repro.data.quantization`);
    ``raw_prices`` keeps the continuous value so quantization choices can be
    re-run (Table IV / Fig 5 experiments).
    """

    raw_prices: np.ndarray
    categories: np.ndarray
    price_levels: np.ndarray
    n_categories: int
    n_price_levels: int

    def __post_init__(self) -> None:
        self.raw_prices = np.asarray(self.raw_prices, dtype=np.float64)
        self.categories = np.asarray(self.categories, dtype=np.int64)
        self.price_levels = np.asarray(self.price_levels, dtype=np.int64)
        n = len(self.raw_prices)
        if not (len(self.categories) == len(self.price_levels) == n):
            raise ValueError("catalog arrays must share length")
        if n and (self.categories.min() < 0 or self.categories.max() >= self.n_categories):
            raise ValueError("category id out of range")
        if n and (self.price_levels.min() < 0 or self.price_levels.max() >= self.n_price_levels):
            raise ValueError("price level out of range")

    def __len__(self) -> int:
        return len(self.raw_prices)

    def with_levels(self, price_levels: np.ndarray, n_price_levels: int) -> "ItemCatalog":
        """Return a copy with a different quantization."""
        return ItemCatalog(
            raw_prices=self.raw_prices,
            categories=self.categories,
            price_levels=price_levels,
            n_categories=self.n_categories,
            n_price_levels=n_price_levels,
        )


@dataclass
class Dataset:
    """A complete price-aware recommendation dataset with a fixed split."""

    name: str
    n_users: int
    n_items: int
    catalog: ItemCatalog
    train: InteractionTable
    validation: InteractionTable
    test: InteractionTable
    _train_pos: Optional[Dict[int, Set[int]]] = field(default=None, repr=False)
    _train_csr: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if len(self.catalog) != self.n_items:
            raise ValueError(
                f"catalog has {len(self.catalog)} items but dataset declares {self.n_items}"
            )
        for split in (self.train, self.validation, self.test):
            if len(split) == 0:
                continue
            if split.users.max() >= self.n_users or split.items.max() >= self.n_items:
                raise ValueError("interaction references out-of-range user/item id")

    # ------------------------------------------------------------------
    @property
    def n_categories(self) -> int:
        return self.catalog.n_categories

    @property
    def n_price_levels(self) -> int:
        return self.catalog.n_price_levels

    @property
    def item_categories(self) -> np.ndarray:
        return self.catalog.categories

    @property
    def item_price_levels(self) -> np.ndarray:
        return self.catalog.price_levels

    # ------------------------------------------------------------------
    def train_positive_sets(self) -> Dict[int, Set[int]]:
        """Mapping user -> set of train-positive items (cached)."""
        if self._train_pos is None:
            self._train_pos = self.split_positive_sets("train")
        return self._train_pos

    def split_positive_sets(self, split: str) -> Dict[int, Set[int]]:
        """Positive sets for 'train' / 'validation' / 'test'."""
        table = {"train": self.train, "validation": self.validation, "test": self.test}[split]
        # Stable sort: each user's items stay in table order, and ``order`` at
        # a group's start is the row where that user first appears.
        order = np.argsort(table.users, kind="stable")
        users, starts = sorted_unique(table.users[order], return_index=True)
        groups = np.split(table.items[order], starts[1:])
        # Keys in first-appearance order, as a row-by-row insert would leave them.
        return {
            int(users[group]): set(groups[group].tolist())
            for group in np.argsort(order[starts])
        }

    def train_exclusion_csr(self) -> tuple:
        """Train-positive items per user as ``(indptr, indices)``, items sorted.

        The CSR form of :meth:`train_positive_sets` (deduplicated, item ids
        ascending within each user): ``indices[indptr[u]:indptr[u+1]]`` is
        user ``u``'s training items.  Shared by the serving exporter (the
        "already bought" exclusion mask) and the batch evaluation runtime
        (vectorized exclusion scatter); cached after the first call.
        """
        if self._train_csr is None:
            order = np.lexsort((self.train.items, self.train.users))
            users = self.train.users[order]
            items = self.train.items[order]
            # Deduplicate repeat purchases of the same item.
            if len(users):
                keep = np.ones(len(users), dtype=bool)
                keep[1:] = (users[1:] != users[:-1]) | (items[1:] != items[:-1])
                users, items = users[keep], items[keep]
            counts = np.zeros(self.n_users, dtype=np.int64)
            np.add.at(counts, users, 1)
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._train_csr = (indptr, items.astype(np.int64))
        return self._train_csr

    def item_popularity(self) -> np.ndarray:
        """Training interaction count per item (ItemPop baseline)."""
        counts = np.zeros(self.n_items, dtype=np.float64)
        np.add.at(counts, self.train.items, 1.0)
        return counts

    def requantize(self, price_levels: np.ndarray, n_price_levels: int) -> "Dataset":
        """Return a dataset copy with a different price quantization."""
        return Dataset(
            name=self.name,
            n_users=self.n_users,
            n_items=self.n_items,
            catalog=self.catalog.with_levels(price_levels, n_price_levels),
            train=self.train,
            validation=self.validation,
            test=self.test,
        )

    def summary(self) -> Dict[str, int]:
        """Statistics in the shape of the paper's Table I."""
        return {
            "users": self.n_users,
            "items": self.n_items,
            "categories": self.n_categories,
            "price_levels": self.n_price_levels,
            "interactions": len(self.train) + len(self.validation) + len(self.test),
        }
