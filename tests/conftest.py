"""Fixtures shared by every test package."""

import pytest

from repro.runtime import sharded


@pytest.fixture
def item_block(monkeypatch):
    """Set the widest item shard for the rest of one test.

    The shard layout is not an option anywhere: every ``ShardedIndex``
    derives it from :data:`repro.runtime.sharded.ITEM_BLOCK_SIZE` when it is
    built, so this is how a test ranks a catalog in many shards.  Forked
    process workers inherit the patched value.
    """

    def set_width(width: int) -> None:
        monkeypatch.setattr(sharded, "ITEM_BLOCK_SIZE", width)

    return set_width
