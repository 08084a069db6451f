"""Tests for InteractionTable / ItemCatalog / Dataset containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Dataset, InteractionTable, ItemCatalog
from repro.arrays import sorted_unique


def tiny_catalog():
    return ItemCatalog(
        raw_prices=[10.0, 20.0, 30.0, 40.0],
        categories=[0, 0, 1, 1],
        price_levels=[0, 1, 0, 1],
        n_categories=2,
        n_price_levels=2,
    )


def tiny_dataset():
    catalog = tiny_catalog()
    train = InteractionTable([0, 0, 1, 2], [0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])
    valid = InteractionTable([1], [0], [4.0])
    test = InteractionTable([2], [1], [5.0])
    return Dataset("tiny", 3, 4, catalog, train, valid, test)


class TestInteractionTable:
    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            InteractionTable([0, 1], [0], [0.0, 1.0])

    def test_sorted_by_time(self):
        table = InteractionTable([0, 1, 2], [2, 1, 0], [3.0, 1.0, 2.0])
        ordered = table.sorted_by_time()
        np.testing.assert_array_equal(ordered.users, [1, 2, 0])
        np.testing.assert_array_equal(ordered.timestamps, [1.0, 2.0, 3.0])

    def test_select_mask(self):
        table = InteractionTable([0, 1, 2], [0, 1, 2], [0.0, 1.0, 2.0])
        subset = table.select(np.array([True, False, True]))
        np.testing.assert_array_equal(subset.users, [0, 2])

    def test_deduplicate_keeps_earliest(self):
        table = InteractionTable([0, 0, 0], [5, 5, 6], [2.0, 1.0, 3.0])
        deduped = table.deduplicate()
        assert len(deduped) == 2
        pair_times = dict(zip(deduped.items, deduped.timestamps))
        assert pair_times[5] == 1.0

    def test_len(self):
        assert len(InteractionTable([0], [0], [0.0])) == 1


class TestItemCatalog:
    def test_valid_construction(self):
        assert len(tiny_catalog()) == 4

    def test_category_out_of_range(self):
        with pytest.raises(ValueError):
            ItemCatalog([1.0], [5], [0], n_categories=2, n_price_levels=2)

    def test_price_level_out_of_range(self):
        with pytest.raises(ValueError):
            ItemCatalog([1.0], [0], [9], n_categories=2, n_price_levels=2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ItemCatalog([1.0, 2.0], [0], [0], n_categories=1, n_price_levels=1)

    def test_with_levels(self):
        catalog = tiny_catalog()
        new = catalog.with_levels(np.array([0, 1, 2, 3]), 4)
        assert new.n_price_levels == 4
        np.testing.assert_array_equal(new.price_levels, [0, 1, 2, 3])
        # original untouched
        assert catalog.n_price_levels == 2


class TestDataset:
    def test_summary(self):
        stats = tiny_dataset().summary()
        assert stats == {
            "users": 3,
            "items": 4,
            "categories": 2,
            "price_levels": 2,
            "interactions": 6,
        }

    def test_catalog_size_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(
                "bad",
                3,
                5,
                tiny_catalog(),
                InteractionTable([], [], []),
                InteractionTable([], [], []),
                InteractionTable([], [], []),
            )

    def test_out_of_range_interaction(self):
        with pytest.raises(ValueError):
            Dataset(
                "bad",
                1,
                4,
                tiny_catalog(),
                InteractionTable([5], [0], [0.0]),
                InteractionTable([], [], []),
                InteractionTable([], [], []),
            )

    def test_train_positive_sets(self):
        pos = tiny_dataset().train_positive_sets()
        assert pos[0] == {0, 1}
        assert pos[1] == {2}
        assert pos[2] == {3}

    def test_train_positive_sets_cached(self):
        ds = tiny_dataset()
        assert ds.train_positive_sets() is ds.train_positive_sets()

    def test_split_positive_sets(self):
        ds = tiny_dataset()
        assert ds.split_positive_sets("test") == {2: {1}}
        assert ds.split_positive_sets("validation") == {1: {0}}

    def test_item_popularity(self):
        pop = tiny_dataset().item_popularity()
        np.testing.assert_array_equal(pop, [1, 1, 1, 1])

    def test_requantize(self):
        ds = tiny_dataset()
        new = ds.requantize(np.array([0, 0, 0, 0]), 1)
        assert new.n_price_levels == 1
        assert ds.n_price_levels == 2
        assert new.train is ds.train

    def test_attribute_properties(self):
        ds = tiny_dataset()
        np.testing.assert_array_equal(ds.item_categories, [0, 0, 1, 1])
        np.testing.assert_array_equal(ds.item_price_levels, [0, 1, 0, 1])


class TestSortedUnique:
    """``sorted_unique`` against the ``np.unique`` it replaces, byte for byte."""

    @staticmethod
    def check(values):
        want = np.unique(values, return_index=True, return_inverse=True)
        got = sorted_unique(values, return_index=True, return_inverse=True)
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        plain, want_plain = sorted_unique(values), np.unique(values)
        assert plain.dtype == want_plain.dtype and plain.tobytes() == want_plain.tobytes()
        assert sorted_unique(values, return_index=True)[1].tobytes() == want[1].tobytes()
        assert sorted_unique(values, return_inverse=True)[1].tobytes() == want[2].tobytes()

    @given(st.lists(st.integers(-5, 5), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_small_int_ranges_with_many_repeats(self, values):
        self.check(np.asarray(values, dtype=np.int64))

    @given(st.lists(st.floats(-1e3, 1e3, width=64), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_floats(self, values):
        self.check(np.asarray(values, dtype=np.float64))

    def test_empty_and_single(self):
        self.check(np.empty(0, dtype=np.int64))
        self.check(np.array([7], dtype=np.int64))
