"""Iterative k-core filtering of interaction data.

The paper applies "10-core settings" — only users and items with at least 10
interactions are retained.  Removing a user can push items below the
threshold and vice versa, so the filter iterates to a fixed point, then both
id spaces are re-indexed to be contiguous.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .dataset import InteractionTable


def k_core_filter(
    table: InteractionTable,
    k: int,
    max_iterations: int = 100,
) -> Tuple[InteractionTable, np.ndarray, np.ndarray]:
    """Filter to the k-core and re-index ids.

    Returns ``(filtered_table, kept_user_ids, kept_item_ids)`` where the kept
    arrays map new contiguous ids back to the original ids
    (``kept_user_ids[new_id] == old_id``).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    users = table.users.copy()
    items = table.items.copy()
    times = table.timestamps.copy()

    for _ in range(max_iterations):
        if len(users) == 0:
            break
        user_counts = np.bincount(users)
        item_counts = np.bincount(items)
        keep = (user_counts[users] >= k) & (item_counts[items] >= k)
        if keep.all():
            break
        users, items, times = users[keep], items[keep], times[keep]
    else:
        raise RuntimeError(f"k-core did not converge within {max_iterations} iterations")

    kept_users, new_users = np.unique(users, return_inverse=True)
    kept_items, new_items = np.unique(items, return_inverse=True)
    return InteractionTable(new_users, new_items, times), kept_users, kept_items
