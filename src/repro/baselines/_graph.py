"""Bipartite user-item adjacency shared by the GC-MC and NGCF baselines."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..data.dataset import Dataset

if TYPE_CHECKING:
    import scipy.sparse as sp


def bipartite_normalized_adjacency(dataset: Dataset, dtype=None) -> sp.csr_matrix:
    """Row-normalized ``A + I`` over the (users + items) bipartite graph.

    Node layout: ``[0, n_users)`` users, ``[n_users, n_users + n_items)``
    items — the same convention GC-MC and NGCF use on the user-item graph.
    ``dtype`` casts the CSR values (pass the encoder's dtype so a float32
    model propagates in float32).
    """
    import scipy.sparse as sp

    n = dataset.n_users + dataset.n_items
    rows = dataset.train.users
    cols = dataset.train.items + dataset.n_users
    data = np.ones(len(rows))
    upper = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    matrix = (upper + upper.T).tocsr()
    matrix.data[:] = 1.0
    matrix = (matrix + sp.identity(n, format="csr")).tocsr()
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    normalized = (sp.diags(1.0 / row_sums) @ matrix).tocsr()
    if dtype is not None:
        normalized = normalized.astype(np.dtype(dtype))
    return normalized
