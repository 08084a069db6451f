"""Fixtures shared by every test package."""

import os
import shutil

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


@pytest.fixture
def row_block(monkeypatch):
    """Set how many open rows exact scoring ranks at once, for one test.

    Like the item layout, the row block is not an option: every
    ``ShardedIndex.topk_chunk`` call reads
    :data:`repro.runtime.sharded.ROW_BLOCK`, so this is how a test puts
    block edges between the rows of one call.
    """

    def set_rows(rows: int) -> None:
        monkeypatch.setattr(sharded, "ROW_BLOCK", rows)

    return set_rows


class Killed(BaseException):
    """What a SIGKILL looks like to the code after it: nothing runs."""


class PublishKiller:
    """Kill an archive write at one of the renames / rmtrees it publishes with.

    ``at(step)`` makes the ``step``-th ``os.rename`` or ``shutil.rmtree``
    call the last thing the writer does (an rmtree deletes one file first,
    as a kill part-way through the delete would) and returns the list the
    calls are recorded in.  ``monkeypatch.undo()`` ends the kill.
    """

    Killed = Killed

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def at(self, step):
        calls = []
        real_rename, real_rmtree = os.rename, shutil.rmtree

        def rename(src, dst, *args, **kwargs):
            calls.append("rename")
            if len(calls) - 1 == step:
                raise Killed
            return real_rename(src, dst, *args, **kwargs)

        def rmtree(path, *args, **kwargs):
            calls.append("rmtree")
            if len(calls) - 1 == step:
                os.remove(os.path.join(path, sorted(os.listdir(path))[0]))
                raise Killed
            return real_rmtree(path, *args, **kwargs)

        self.monkeypatch.setattr(os, "rename", rename)
        self.monkeypatch.setattr(shutil, "rmtree", rmtree)
        return calls


@pytest.fixture
def kill_publish(monkeypatch):
    """A :class:`PublishKiller` bound to this test's ``monkeypatch``."""
    return PublishKiller(monkeypatch)
