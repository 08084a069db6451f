"""Composable candidate filters for retrieval requests.

A :class:`Filter` restricts the item pool a request may recommend from.
Filters compose by intersection (:func:`combine_mask` / the ``&`` operator)
and every filter exposes a stable :meth:`signature` so the service can use
filtered requests as cache keys and the engine can build one mask per
distinct pool in a batch.

Masks are boolean ``(n_items,)`` arrays evaluated against an
:class:`~repro.serving.index.EmbeddingIndex`; they depend only on the item
catalog, so the engine caches them per signature.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .index import EmbeddingIndex


class Filter:
    """Base class: a predicate over the item catalog."""

    def mask(self, index: EmbeddingIndex) -> np.ndarray:
        """Boolean ``(n_items,)`` array, True where the item is allowed."""
        raise NotImplementedError

    def signature(self) -> Tuple:
        """Hashable identity keying the result and mask caches."""
        raise NotImplementedError

    def __and__(self, other: "Filter") -> "AllOf":
        return AllOf([self, other])


class PriceBandFilter(Filter):
    """Items whose price level lies in ``[min_level, max_level]`` (inclusive).

    With ``use_raw_prices`` the band is interpreted against the catalog's
    continuous prices instead of quantized levels.
    """

    def __init__(
        self,
        min_level: Optional[float] = None,
        max_level: Optional[float] = None,
        use_raw_prices: bool = False,
    ) -> None:
        if min_level is None and max_level is None:
            raise ValueError("price band needs at least one bound")
        self.min_level = min_level
        self.max_level = max_level
        self.use_raw_prices = use_raw_prices

    def mask(self, index: EmbeddingIndex) -> np.ndarray:
        if self.use_raw_prices:
            if index.item_raw_prices is None:
                raise ValueError("index was exported without raw prices")
            values = index.item_raw_prices
        else:
            values = index.item_price_levels
        allowed = np.ones(index.n_items, dtype=bool)
        if self.min_level is not None:
            allowed &= values >= self.min_level
        if self.max_level is not None:
            allowed &= values <= self.max_level
        return allowed

    def signature(self) -> Tuple:
        return ("price_band", self.min_level, self.max_level, self.use_raw_prices)


class CategoryFilter(Filter):
    """Items belonging to any of the given categories."""

    def __init__(self, categories: Iterable[int]) -> None:
        self.categories = tuple(sorted(int(c) for c in categories))
        if not self.categories:
            raise ValueError("category filter needs at least one category")

    def mask(self, index: EmbeddingIndex) -> np.ndarray:
        return np.isin(index.item_categories, self.categories)

    def signature(self) -> Tuple:
        return ("category", self.categories)


class AllowListFilter(Filter):
    """Only the listed item ids are eligible."""

    def __init__(self, items: Sequence[int]) -> None:
        self.items = tuple(sorted(int(i) for i in items))

    def mask(self, index: EmbeddingIndex) -> np.ndarray:
        allowed = np.zeros(index.n_items, dtype=bool)
        if self.items:
            allowed[list(self.items)] = True
        return allowed

    def signature(self) -> Tuple:
        return ("allow", self.items)


class DenyListFilter(Filter):
    """The listed item ids are never recommended (out of stock, banned...)."""

    def __init__(self, items: Sequence[int]) -> None:
        self.items = tuple(sorted(int(i) for i in items))

    def mask(self, index: EmbeddingIndex) -> np.ndarray:
        allowed = np.ones(index.n_items, dtype=bool)
        if self.items:
            allowed[list(self.items)] = False
        return allowed

    def signature(self) -> Tuple:
        return ("deny", self.items)


class AllOf(Filter):
    """Intersection of several filters."""

    def __init__(self, filters: Sequence[Filter]) -> None:
        flattened = []
        for item in filters:
            if isinstance(item, AllOf):
                flattened.extend(item.filters)
            else:
                flattened.append(item)
        self.filters = tuple(flattened)

    def mask(self, index: EmbeddingIndex) -> np.ndarray:
        allowed = np.ones(index.n_items, dtype=bool)
        for item in self.filters:
            allowed &= item.mask(index)
        return allowed

    def signature(self) -> Tuple:
        return ("all_of", tuple(f.signature() for f in self.filters))


def combine_signature(filters: Sequence[Filter]) -> Tuple:
    """Canonical hashable signature for an (ordered) filter set."""
    return tuple(f.signature() for f in filters)


def combine_mask(filters: Sequence[Filter], index: EmbeddingIndex) -> Optional[np.ndarray]:
    """Intersect the filters' masks; ``None`` when unrestricted."""
    if not filters:
        return None
    return AllOf(filters).mask(index)
