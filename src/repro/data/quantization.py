"""Price discretization: uniform and rank-based quantization.

Section II-B defines *uniform quantization*: a price ``x`` in a category with
range ``[lo, hi]`` maps to level ``floor((x - lo) / (hi - lo) * L)`` (clipped
to ``L - 1`` at the top).  Section V-C2 introduces *rank-based quantization*:
rank items by price within their category, convert to a percentile, multiply
by ``L`` and take the integer part — which handles the heavy-tailed price
distributions found on real platforms (Table IV).
"""

from __future__ import annotations

import numpy as np

from ..arrays import sorted_unique


def _validate(prices: np.ndarray, categories: np.ndarray, n_levels: int) -> tuple:
    prices = np.asarray(prices, dtype=np.float64)
    categories = np.asarray(categories, dtype=np.int64)
    if prices.shape != categories.shape:
        raise ValueError(f"prices/categories shape mismatch: {prices.shape} vs {categories.shape}")
    if n_levels < 1:
        raise ValueError(f"need at least one price level, got {n_levels}")
    if prices.size and np.any(prices < 0):
        raise ValueError("prices must be non-negative")
    return prices, categories


def uniform_quantize(
    prices: np.ndarray,
    categories: np.ndarray,
    n_levels: int,
    per_category: bool = True,
) -> np.ndarray:
    """Uniform quantization of prices into ``n_levels`` levels.

    With ``per_category=True`` (the paper's formulation — the mobile-phone
    example normalizes by the category's own price range) each category is
    normalized independently; otherwise a single global range is used.

    Degenerate categories where every item has the same price map to level 0.
    """
    prices, categories = _validate(prices, categories, n_levels)
    levels = np.zeros(prices.shape, dtype=np.int64)
    if prices.size == 0:
        return levels

    if per_category:
        for category in sorted_unique(categories):
            mask = categories == category
            levels[mask] = _uniform_levels(prices[mask], n_levels)
    else:
        levels = _uniform_levels(prices, n_levels)
    return levels


def _uniform_levels(values: np.ndarray, n_levels: int) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros(values.shape, dtype=np.int64)
    normalized = (values - lo) / (hi - lo)
    return np.minimum((normalized * n_levels).astype(np.int64), n_levels - 1)


def rank_quantize(
    prices: np.ndarray,
    categories: np.ndarray,
    n_levels: int,
) -> np.ndarray:
    """Rank-based quantization: percentile of price *within category* -> level.

    Ties share the average rank so identical prices land on the same level.
    The resulting levels are near-uniformly populated regardless of the raw
    price distribution, which is the property Table IV credits for the win
    over uniform quantization.
    """
    prices, categories = _validate(prices, categories, n_levels)
    levels = np.zeros(prices.shape, dtype=np.int64)
    if prices.size == 0:
        return levels

    for category in sorted_unique(categories):
        mask = categories == category
        levels[mask] = _rank_levels(prices[mask], n_levels)
    return levels


def _rank_levels(values: np.ndarray, n_levels: int) -> np.ndarray:
    count = len(values)
    if count == 1:
        return np.zeros(1, dtype=np.int64)
    # Average rank for ties, then percentile in [0, 1).
    order = np.argsort(values, kind="stable")
    ranks = np.empty(count, dtype=np.float64)
    ranks[order] = np.arange(count, dtype=np.float64)
    # Average the ranks of tied values.
    unique_vals, inverse = sorted_unique(values, return_inverse=True)
    sums = np.zeros(len(unique_vals))
    counts = np.zeros(len(unique_vals))
    np.add.at(sums, inverse, ranks)
    np.add.at(counts, inverse, 1.0)
    ranks = (sums / counts)[inverse]
    percentile = ranks / count
    return np.minimum((percentile * n_levels).astype(np.int64), n_levels - 1)


def quantize(
    prices: np.ndarray,
    categories: np.ndarray,
    n_levels: int,
    method: str = "uniform",
) -> np.ndarray:
    """Dispatch on quantization ``method`` ('uniform' or 'rank')."""
    if method == "uniform":
        return uniform_quantize(prices, categories, n_levels)
    if method == "rank":
        return rank_quantize(prices, categories, n_levels)
    raise ValueError(f"unknown quantization method {method!r}; expected 'uniform' or 'rank'")
