"""Worker threads rank bit-identically to one serial pass.

A generated differential over :class:`~repro.runtime.BatchRuntime`: a
factorization (integer-valued factors in half the cases, so exact score
ties straddle chunk and shard edges), a drawn ``user_chunk``, a drawn item
layout (the ``item_block`` fixture), an optional exclusion mask and
optional per-user candidate pools.  The reference ranks every user in one
chunk, serially, over the same item layout; the runtime under test runs
the drawn chunks at zero, two or three worker threads.  Ids and scores
must match bit for bit, in both dtypes, and match the one-shard layout's
ranking too: a score's bits do not depend on the shard it is scored in.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scoring import ScoreBranch
from repro.runtime import BatchRuntime, RuntimeConfig


@st.composite
def cases(draw, dtype):
    n_users = draw(st.integers(1, 40))
    n_items = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = draw(st.booleans())

    def factor(rows, dim):
        if ties:
            return rng.integers(-2, 3, size=(rows, dim)).astype(dtype)
        return rng.normal(size=(rows, dim)).astype(dtype)

    branches = [
        ScoreBranch(user=factor(n_users, dim), item=factor(n_items, dim), weight=weight)
        for dim, weight in draw(st.sampled_from([((4, 1.0),), ((5, 1.0), (2, 0.5))]))
    ]
    exclude_csr = None
    if draw(st.booleans()):
        counts = rng.integers(0, n_items + 1, size=n_users)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        indices = np.concatenate(
            [np.sort(rng.choice(n_items, count, replace=False)) for count in counts]
        ).astype(np.int64)
        exclude_csr = (indptr, indices)
    users = rng.integers(0, n_users, size=draw(st.integers(1, 50)))
    candidate_items = None
    if draw(st.booleans()):
        candidate_items = {
            int(user): (
                np.flatnonzero(rng.random(n_items) < 0.5) if rng.random() < 0.5 else None
            )
            for user in np.unique(users)
        }
    return dict(
        branches=branches,
        exclude_csr=exclude_csr,
        users=users,
        candidate_items=candidate_items,
        k=draw(st.integers(1, n_items + 2)),
        user_chunk=draw(st.integers(1, 17)),
        item_width=draw(st.integers(1, n_items)),
    )


def rank(case, workers, user_chunk):
    config = RuntimeConfig(workers=workers, user_chunk=user_chunk)
    with BatchRuntime(case["branches"], config, exclude_csr=case["exclude_csr"]) as runtime:
        return runtime.rank(
            case["users"], case["k"], with_scores=True,
            candidate_items=case["candidate_items"],
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("workers", [0, 2, 3])
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_threads_rank_like_one_serial_pass(item_block, workers, dtype, data):
    case = data.draw(cases(dtype))
    item_block(case["item_width"])
    expected_users, expected_ids, expected_scores = rank(case, 0, len(case["users"]))
    users, ids, scores = rank(case, workers, case["user_chunk"])
    np.testing.assert_array_equal(users, expected_users)
    np.testing.assert_array_equal(ids, expected_ids)
    assert scores.dtype == expected_scores.dtype == dtype
    np.testing.assert_array_equal(scores, expected_scores)
    item_block(1 << 30)
    _, one_shard_ids, one_shard_scores = rank(case, 0, len(case["users"]))
    np.testing.assert_array_equal(ids, one_shard_ids)
    assert scores.tobytes() == one_shard_scores.tobytes()
