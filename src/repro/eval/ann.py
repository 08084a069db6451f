"""Recall-vs-exact evaluation of approximate retrieval.

ANN correctness is not a yes/no property — it is a measured overlap
between the approximate top-K and the exact one.  This module is the
measurement: :func:`ann_recall_at_k` compares two ranking dicts, and
:func:`ann_recall_report` sweeps an ANN index's ``nprobe`` operating
points against exact rankings computed through the batch runtime (so the
"exact" side is the very kernel production uses, not a second
implementation).

The CLI's ``repro evaluate --ann-check``, the lifecycle promotion gates
and the default-operating-point recall tests all run through here.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..runtime.engine import BatchRuntime


def ann_recall_at_k(
    exact_rankings: Dict[int, np.ndarray],
    ann_rankings: Dict[int, np.ndarray],
    k: int,
) -> float:
    """Mean per-user overlap between approximate and exact top-``k`` lists.

    For each user: ``|ann[:k] ∩ exact[:k]| / |exact[:k]|`` (sentinel ``-1``
    padding in either list is ignored; a user whose exact list is empty
    contributes 1.0 — there was nothing to recall).  Every exact user must
    be present in ``ann_rankings``; extra ANN users are ignored.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not exact_rankings:
        raise ValueError("no users to evaluate")
    recalls = []
    for user, exact in exact_rankings.items():
        if user not in ann_rankings:
            raise KeyError(f"ann_rankings is missing user {user}")
        exact_top = np.asarray(exact)[:k]
        exact_top = exact_top[exact_top >= 0]
        if len(exact_top) == 0:
            recalls.append(1.0)
            continue
        approx_top = np.asarray(ann_rankings[user])[:k]
        approx_top = approx_top[approx_top >= 0]
        recalls.append(len(np.intersect1d(exact_top, approx_top)) / len(exact_top))
    return float(np.mean(recalls))


def exact_rankings(
    index,
    users: Sequence[int],
    k: int,
    exclude_train: bool = True,
) -> Dict[int, np.ndarray]:
    """Exact top-``k`` per user from a frozen index, via the batch runtime.

    Ranked in item shards like every exact ranking: the score block stays
    ``chunk x ITEM_BLOCK_SIZE`` at any catalog size, and the sharded merge
    returns the ids one full-width pass would.
    """
    exclude_csr = (
        (index.exclude_indptr, index.exclude_indices) if exclude_train else None
    )
    with BatchRuntime(index, exclude_csr=exclude_csr) as runtime:
        ordered, ids, _ = runtime.rank(users, k)
    return {int(user): ids[row] for row, user in enumerate(ordered)}


def ann_recall_report(
    index,
    ann,
    users: Sequence[int],
    k: int = 50,
    nprobes: Optional[Iterable[int]] = None,
    scorers: Sequence[str] = ("exact",),
    exclude_train: bool = True,
) -> Dict:
    """Recall@``k`` of an IVF index across operating points, vs exact search.

    ``nprobes`` defaults to the index's own default operating point; pass
    several to sweep the recall curve.  ``scorers`` selects the fine-stage
    arms (``"exact"``, plus ``"pq"`` when the index carries a PQ
    companion).  Returns a JSON-safe report keyed
    ``arms[f"nprobe{n}_{scorer}"] -> {"recall_at_k": ...}``.
    """
    users = np.asarray(list(users), dtype=np.int64)
    reference = exact_rankings(index, users, k, exclude_train=exclude_train)
    exclude_csr = (
        (index.exclude_indptr, index.exclude_indices) if exclude_train else None
    )
    if nprobes is None:
        nprobes = (ann.nprobe,)
    arms: Dict[str, Dict] = {}
    for nprobe in nprobes:
        for scorer in scorers:
            ids, _ = ann.search(
                users, k, nprobe=int(nprobe), scorer=scorer, exclude_csr=exclude_csr
            )
            approx = {int(user): ids[row] for row, user in enumerate(users)}
            arms[f"nprobe{nprobe}_{scorer}"] = {
                "nprobe": int(nprobe),
                "scorer": scorer,
                "recall_at_k": ann_recall_at_k(reference, approx, k),
            }
    return {"k": int(k), "evaluated_users": int(len(users)), "arms": arms}
