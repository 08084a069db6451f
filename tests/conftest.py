"""Fixtures shared by every test package."""

import os
import shutil

import numpy as np
import pytest

from repro.nn import Tensor
from repro.runtime import sharded

#: per dtype: the finite-difference step, and the relative and absolute
#: tolerance on the directional slope.  A float64 central difference is good
#: to about 1e-9.  In float32 the step is a compromise: round-off in the
#: forward pass grows as it shrinks, and a longer step starts to cross the
#: kinks of DeepFM's ReLU tower; at 3e-4 the worst case uses 55 % of the
#: tolerance.
GRAD_TOLERANCES = {
    np.dtype(np.float64): (1e-6, 1e-6, 1e-9),
    np.dtype(np.float32): (3e-4, 1e-2, 1e-5),
}


def check_grads(fun, *args, seed=0):
    """Check the backward gradient of ``fun`` against a central difference.

    ``fun(*leaves)`` returns a scalar ``Tensor``; each of ``args`` is a leaf
    ``Tensor`` (a ``Parameter`` included) or an array made into one.  The
    backward gradient is projected on one seeded random direction ``d`` and
    compared with ``(f(x + eps d) - f(x - eps d)) / 2 eps`` along it: three
    evaluations of ``fun`` however many coordinates there are, where a
    per-coordinate difference costs two per coordinate.  The projection uses
    the displacement as rounded to each leaf's dtype, so float32 rounding of
    the step itself costs no accuracy; the narrowest leaf dtype picks the
    step and tolerances.  Leaves keep their data and the backward gradient;
    the gradients are returned, zeros where ``fun`` does not depend on a
    leaf.
    """
    leaves = [arg if isinstance(arg, Tensor) else Tensor(arg, requires_grad=True) for arg in args]
    dtype = min((leaf.dtype for leaf in leaves), key=lambda leaf_dtype: leaf_dtype.itemsize)
    eps, rtol, atol = GRAD_TOLERANCES[dtype]
    for leaf in leaves:
        leaf.grad = None
    fun(*leaves).backward()
    grads = [np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad for leaf in leaves]

    rng = np.random.default_rng(seed)
    originals = [leaf.data for leaf in leaves]
    steps = [eps * rng.standard_normal(leaf.shape) for leaf in leaves]
    points, values = [], []
    for sign in (1.0, -1.0):
        point = [(data + sign * step).astype(data.dtype) for data, step in zip(originals, steps)]
        for leaf, data in zip(leaves, point):
            leaf.data = data
        points.append(point)
        values.append(fun(*leaves).item())
    for leaf, data in zip(leaves, originals):
        leaf.data = data

    span = 2.0 * eps
    numeric = (values[0] - values[1]) / span
    analytic = sum(
        np.vdot(grad.astype(np.float64), plus.astype(np.float64) - minus.astype(np.float64))
        for grad, plus, minus in zip(grads, *points)
    ) / span
    assert np.isclose(analytic, numeric, rtol=rtol, atol=atol), (
        f"{dtype} directional slope: backward {analytic!r}, central difference {numeric!r}"
    )
    return grads


@pytest.fixture(name="check_grads")
def check_grads_fixture():
    """:func:`check_grads`, for any test under ``tests/``."""
    return check_grads


@pytest.fixture
def item_block(monkeypatch):
    """Set the widest item shard for the rest of one test.

    The shard layout is not an option anywhere: every ``ShardedIndex``
    derives it from :data:`repro.runtime.sharded.ITEM_BLOCK_SIZE` when it is
    built, so this is how a test ranks a catalog in many shards.
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
