"""A score's bits do not depend on the item range it is scored in.

:func:`~repro.scoring.score_branches` runs every product over
:func:`~repro.scoring.gemm_cols` items of the same table: a window
shifted left at the table's end, a body-and-tail split where no window
fits, a zero-padded copy of a table shorter than
:data:`~repro.scoring.COL_MULTIPLE`.  Each test holds every ``[start,
stop)`` range to the bytes of one product over the whole table, zero-padded
to a multiple of ``COL_MULTIPLE`` items.
"""

import numpy as np
import pytest

from repro.scoring import (
    COL_MULTIPLE,
    ScoreBranch,
    gemm_cols,
    gemm_rows,
    padded_rows,
    score_branches,
)


def branches(n_items, dtype, seed=0):
    """Two branches: a user constant on the first, an item constant and
    ``weight != 1`` on the second, so the multi-branch scratch runs."""
    rng = np.random.default_rng(seed)
    return [
        ScoreBranch(
            user=rng.normal(size=(40, 13)).astype(dtype),
            item=rng.normal(size=(n_items, 13)).astype(dtype),
            user_const=rng.normal(size=40).astype(dtype),
        ),
        ScoreBranch(
            user=rng.normal(size=(40, 3)).astype(dtype),
            item=rng.normal(size=(n_items, 3)).astype(dtype),
            item_const=rng.normal(size=n_items).astype(dtype),
            weight=0.75,
        ),
    ]


def whole_table(parts, users):
    """The scores of one product over each whole table, zero-padded to
    ``gemm_cols(n_items)`` items, then the same elementwise steps
    :func:`score_branches` applies."""
    n_items = parts[0].item.shape[0]
    cols = gemm_cols(n_items)
    total = None
    for branch in parts:
        table = np.zeros((cols, branch.item.shape[1]), branch.item.dtype)
        table[:n_items] = branch.item
        part = (branch.user[padded_rows(users, cols)] @ table.T)[: len(users), :n_items]
        if branch.item_const is not None:
            part = part + branch.item_const[None, :]
        if branch.user_const is not None:
            part = part + branch.user_const[users][:, None]
        if branch.weight != 1.0:
            part = branch.weight * part
        total = part if total is None else total + part
    return total


def test_the_column_multiple_was_probed():
    assert COL_MULTIPLE in (8, 16, 32)
    assert [gemm_cols(width) for width in (0, 1, COL_MULTIPLE, COL_MULTIPLE + 1)] == [
        0, COL_MULTIPLE, COL_MULTIPLE, 2 * COL_MULTIPLE,
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_items", [1, 5, 8, 17, 203])
@pytest.mark.parametrize("n_users", [1, 40])
def test_every_range_scores_the_whole_tables_bits(dtype, n_items, n_users):
    parts = branches(n_items, dtype, seed=n_items)
    users = np.arange(40)[::-1][:n_users]
    want = whole_table(parts, users)
    # tall and wide enough for every range's product, so the in-place path runs
    out = np.empty((gemm_rows(n_users, 1), gemm_cols(n_items)), dtype)
    scratch = np.empty_like(out)
    for start in range(n_items):
        for stop in range(start + 1, n_items + 1):
            expected = want[:, start:stop].tobytes()
            assert score_branches(parts, users, start, stop).tobytes() == expected, (start, stop)
            got = score_branches(parts, users, start, stop, out=out, scratch=scratch)
            assert np.shares_memory(got, out)
            assert got.tobytes() == expected, (start, stop)
