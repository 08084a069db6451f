"""Bipartite user-item adjacency shared by the GC-MC and NGCF baselines."""

from __future__ import annotations

from ..data.dataset import Dataset
from ..graph import csr


def bipartite_normalized_adjacency(dataset: Dataset, dtype=None) -> csr.CSR:
    """Row-normalized ``A + I`` over the (users + items) bipartite graph.

    Node layout: ``[0, n_users)`` users, ``[n_users, n_users + n_items)``
    items — the same convention GC-MC and NGCF use on the user-item graph.
    ``dtype`` sets the CSR values' precision (pass the encoder's dtype so a
    float32 model propagates in float32).
    """
    return csr.normalized_adjacency(
        dataset.n_users + dataset.n_items,
        dataset.train.users,
        dataset.train.items + dataset.n_users,
        dtype=dtype,
    )
