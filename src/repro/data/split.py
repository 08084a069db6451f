"""Temporal train/validation/test splitting.

The paper ranks all records by timestamp and takes the earliest 60% as
training, the middle 20% as validation and the final 20% as test.
"""

from __future__ import annotations

from typing import Tuple

from .dataset import InteractionTable


def temporal_split(
    table: InteractionTable,
    train_fraction: float = 0.6,
    validation_fraction: float = 0.2,
) -> Tuple[InteractionTable, InteractionTable, InteractionTable]:
    """Chronological split into (train, validation, test).

    Fractions must be positive and leave a non-empty test remainder.
    """
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if not 0 < validation_fraction < 1:
        raise ValueError(f"validation_fraction must be in (0, 1), got {validation_fraction}")
    if train_fraction + validation_fraction >= 1:
        raise ValueError(
            "train + validation fractions must leave room for a test split, got "
            f"{train_fraction} + {validation_fraction}"
        )

    ordered = table.sorted_by_time()
    total = len(ordered)
    train_end = int(total * train_fraction)
    valid_end = int(total * (train_fraction + validation_fraction))

    def rows(start: int, stop: int) -> InteractionTable:
        # Copies, so the three splits do not alias one time-ordered base array.
        return InteractionTable(
            ordered.users[start:stop].copy(),
            ordered.items[start:stop].copy(),
            ordered.timestamps[start:stop].copy(),
        )

    return rows(0, train_end), rows(train_end, valid_end), rows(valid_end, total)
