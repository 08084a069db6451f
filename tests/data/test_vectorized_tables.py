"""Differential tests: the vectorized table helpers against the loops they replaced.

The ``loop_*`` references are verbatim copies of the implementations at
commit 08a22ff.  Tables are random with planted duplicate (user, item) pairs
and timestamp ties, the two things the stable sorts have to get right.
"""

from typing import Dict, Set

import numpy as np
import pytest

from repro.data import Dataset, InteractionTable, ItemCatalog, k_core_filter, temporal_split


def loop_deduplicate(table: InteractionTable) -> InteractionTable:
    table = table.sorted_by_time()
    seen: Set[tuple] = set()
    keep = np.zeros(len(table), dtype=bool)
    for index, (user, item) in enumerate(zip(table.users, table.items)):
        key = (int(user), int(item))
        if key not in seen:
            seen.add(key)
            keep[index] = True
    return table.select(keep)


def loop_k_core_filter(table: InteractionTable, k: int, max_iterations: int = 100):
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

    kept_users = np.unique(users)
    kept_items = np.unique(items)
    user_map = {old: new for new, old in enumerate(kept_users)}
    item_map = {old: new for new, old in enumerate(kept_items)}
    new_users = np.fromiter((user_map[u] for u in users), dtype=np.int64, count=len(users))
    new_items = np.fromiter((item_map[i] for i in items), dtype=np.int64, count=len(items))
    return InteractionTable(new_users, new_items, times), kept_users, kept_items


def loop_temporal_split(table: InteractionTable, train_fraction=0.6, validation_fraction=0.2):
    ordered = table.sorted_by_time()
    total = len(ordered)
    train_end = int(total * train_fraction)
    valid_end = int(total * (train_fraction + validation_fraction))
    index = list(range(total))
    train = ordered.select(index[:train_end])
    validation = ordered.select(index[train_end:valid_end])
    test = ordered.select(index[valid_end:])
    return train, validation, test


def loop_positive_sets(table: InteractionTable) -> Dict[int, Set[int]]:
    pos: Dict[int, Set[int]] = {}
    for user, item in zip(table.users, table.items):
        pos.setdefault(int(user), set()).add(int(item))
    return pos


def random_table(seed: int, n_rows: int = 400, n_users: int = 25, n_items: int = 30):
    """Sparse id ranges, ~25% repeated pairs, timestamps drawn from few values."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, n_users, n_rows)
    items = rng.integers(0, n_items, n_rows)
    repeats = rng.random(n_rows) < 0.25
    source = rng.integers(0, n_rows, n_rows)
    users[repeats], items[repeats] = users[source[repeats]], items[source[repeats]]
    timestamps = rng.integers(0, n_rows // 4, n_rows).astype(np.float64)
    return InteractionTable(users, items, timestamps)


def assert_tables_equal(actual: InteractionTable, expected: InteractionTable):
    np.testing.assert_array_equal(actual.users, expected.users)
    np.testing.assert_array_equal(actual.items, expected.items)
    np.testing.assert_array_equal(actual.timestamps, expected.timestamps)


EMPTY = InteractionTable(np.array([]), np.array([]), np.array([]))
SEEDS = range(8)


@pytest.mark.parametrize("seed", SEEDS)
def test_deduplicate_matches_loop(seed):
    table = random_table(seed)
    result = table.deduplicate()
    assert len(result) < len(table)
    assert_tables_equal(result, loop_deduplicate(table))


def test_deduplicate_empty_table():
    assert_tables_equal(EMPTY.deduplicate(), loop_deduplicate(EMPTY))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 3, 12])
def test_k_core_filter_matches_loop(seed, k):
    # Drop some ids entirely so re-indexing has gaps to close.
    table = random_table(seed, n_users=40, n_items=45)
    table = table.select((table.users % 7 != 3) & (table.items % 5 != 1))
    filtered, kept_users, kept_items = k_core_filter(table, k)
    expected, expected_users, expected_items = loop_k_core_filter(table, k)
    assert_tables_equal(filtered, expected)
    np.testing.assert_array_equal(kept_users, expected_users)
    np.testing.assert_array_equal(kept_items, expected_items)
    assert kept_users.dtype == expected_users.dtype
    assert kept_items.dtype == expected_items.dtype


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fractions", [(0.6, 0.2), (0.75, 0.05), (0.1, 0.1)])
def test_temporal_split_matches_loop(seed, fractions):
    table = random_table(seed, n_rows=397)
    for split, expected in zip(
        temporal_split(table, *fractions), loop_temporal_split(table, *fractions)
    ):
        assert_tables_equal(split, expected)


def test_temporal_splits_do_not_alias():
    for split in temporal_split(random_table(0)):
        for array in (split.users, split.items, split.timestamps):
            assert array.base is None


@pytest.mark.parametrize("seed", SEEDS)
def test_positive_sets_match_loop(seed):
    table = random_table(seed)
    train, validation, test = temporal_split(table)
    n_items = 30
    catalog = ItemCatalog(
        raw_prices=np.ones(n_items),
        categories=np.zeros(n_items, dtype=np.int64),
        price_levels=np.zeros(n_items, dtype=np.int64),
        n_categories=1,
        n_price_levels=1,
    )
    dataset = Dataset("random", 25, n_items, catalog, train, validation, test)
    for name, split in (("train", train), ("validation", validation), ("test", test)):
        result = dataset.split_positive_sets(name)
        expected = loop_positive_sets(split)
        assert result == expected
        # Same key order, same element types: callers iterate these dicts.
        assert list(result) == list(expected)
        assert all(type(user) is int for user in result)
        assert all(type(item) is int for items in result.values() for item in items)
    assert dataset.train_positive_sets() == loop_positive_sets(train)
    assert dataset.train_positive_sets() is dataset.train_positive_sets()


def test_positive_sets_of_an_empty_split():
    catalog = ItemCatalog(np.ones(2), np.zeros(2), np.zeros(2), 1, 1)
    table = InteractionTable(np.array([0, 1]), np.array([1, 0]), np.array([0.0, 1.0]))
    dataset = Dataset("tiny", 2, 2, catalog, table, EMPTY, table)
    assert dataset.split_positive_sets("validation") == {}
