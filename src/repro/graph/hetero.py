"""The unified heterogeneous graph of Section III-A.

Four node types — users, items, prices, categories — in one id space:

    [0, M)                    users
    [M, M+N)                  items
    [M+N, M+N+C)              categories
    [M+N+C, M+N+C+P)          price levels

Edges: (u, i) for every train interaction, (i, c_i) and (i, p_i) for every
item, plus self-loops on every node (added by the adjacency builder).

:class:`NodeSpace` handles the id arithmetic; :class:`HeteroGraph` builds the
edge list from a :class:`~repro.data.dataset.Dataset` and can drop the price
and/or category edges — that is how the PUP ablations ("PUP w/o c,p",
"PUP w/ c", "PUP w/ p", "PUP−") are constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..data.dataset import Dataset


@dataclass(frozen=True)
class NodeSpace:
    """Index arithmetic for the unified node id space.

    ``n_profiles`` supports the paper's Section VII extension: user-profile
    attributes as a fifth node type linked to user nodes.  It defaults to 0
    (the paper's main model).
    """

    n_users: int
    n_items: int
    n_categories: int
    n_price_levels: int
    n_profiles: int = 0

    @property
    def total(self) -> int:
        return (
            self.n_users
            + self.n_items
            + self.n_categories
            + self.n_price_levels
            + self.n_profiles
        )

    # --- offsets -------------------------------------------------------
    @property
    def item_offset(self) -> int:
        return self.n_users

    @property
    def category_offset(self) -> int:
        return self.n_users + self.n_items

    @property
    def price_offset(self) -> int:
        return self.n_users + self.n_items + self.n_categories

    @property
    def profile_offset(self) -> int:
        return self.n_users + self.n_items + self.n_categories + self.n_price_levels

    # --- encoders ------------------------------------------------------
    def user(self, user_ids: np.ndarray) -> np.ndarray:
        """Global node ids of users (identity mapping, validated)."""
        ids = np.asarray(user_ids, dtype=np.int64)
        self._check(ids, 0, self.n_users, "user")
        return ids

    def item(self, item_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(item_ids, dtype=np.int64)
        self._check(ids, 0, self.n_items, "item")
        return ids + self.item_offset

    def category(self, category_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(category_ids, dtype=np.int64)
        self._check(ids, 0, self.n_categories, "category")
        return ids + self.category_offset

    def price(self, price_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(price_ids, dtype=np.int64)
        self._check(ids, 0, self.n_price_levels, "price")
        return ids + self.price_offset

    def profile(self, profile_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(profile_ids, dtype=np.int64)
        self._check(ids, 0, self.n_profiles, "profile")
        return ids + self.profile_offset

    @staticmethod
    def _check(ids: np.ndarray, lo: int, hi: int, kind: str) -> None:
        if ids.size and (ids.min() < lo or ids.max() >= hi):
            raise IndexError(f"{kind} id out of range [{lo}, {hi})")

    def node_type(self, node_id: int) -> str:
        """Classify a global node id ('user'/'item'/'category'/'price')."""
        if not 0 <= node_id < self.total:
            raise IndexError(f"node id {node_id} out of range [0, {self.total})")
        if node_id < self.item_offset:
            return "user"
        if node_id < self.category_offset:
            return "item"
        if node_id < self.price_offset:
            return "category"
        if node_id < self.profile_offset:
            return "price"
        return "profile"


class HeteroGraph:
    """Edge list + node space for one encoder branch of PUP.

    Parameters
    ----------
    dataset:
        Source of interactions and item attributes.
    include_prices / include_categories:
        Drop the corresponding attribute edges *and nodes are kept but
        isolated* (they only self-loop), which matches removing the factor
        from the model while keeping tensor shapes stable for ablations.
    """

    def __init__(
        self,
        dataset: Dataset,
        include_prices: bool = True,
        include_categories: bool = True,
        user_profiles: Optional[np.ndarray] = None,
        n_profiles: int = 0,
    ) -> None:
        if user_profiles is not None:
            user_profiles = np.asarray(user_profiles, dtype=np.int64)
            if len(user_profiles) != dataset.n_users:
                raise ValueError(
                    f"user_profiles has {len(user_profiles)} entries for "
                    f"{dataset.n_users} users"
                )
            if n_profiles < 1:
                raise ValueError("n_profiles must be >= 1 when user_profiles is given")
        elif n_profiles:
            raise ValueError("n_profiles given without user_profiles")

        self.space = NodeSpace(
            n_users=dataset.n_users,
            n_items=dataset.n_items,
            n_categories=dataset.n_categories,
            n_price_levels=dataset.n_price_levels,
            n_profiles=n_profiles if user_profiles is not None else 0,
        )
        self.include_prices = include_prices
        self.include_categories = include_categories

        rows = [self.space.user(dataset.train.users)]
        cols = [self.space.item(dataset.train.items)]

        item_ids = np.arange(dataset.n_items)
        if include_categories:
            rows.append(self.space.item(item_ids))
            cols.append(self.space.category(dataset.item_categories))
        if include_prices:
            rows.append(self.space.item(item_ids))
            cols.append(self.space.price(dataset.item_price_levels))
        if user_profiles is not None:
            rows.append(self.space.user(np.arange(dataset.n_users)))
            cols.append(self.space.profile(user_profiles))

        self._rows = np.concatenate(rows)
        self._cols = np.concatenate(cols)
        # Constant-subgraph caches: the adjacency, its row-normalized forms
        # and the degree norms never change after construction, so they are
        # built at most once per (variant, dtype) instead of per forward.
        # Cached matrices are shared — callers must treat them as read-only.
        self._adjacency: Optional[sp.csr_matrix] = None
        self._normalized: dict = {}
        self._degrees: Optional[np.ndarray] = None

    @property
    def n_nodes(self) -> int:
        return self.space.total

    @property
    def n_edges(self) -> int:
        """Undirected edge count (before self-loops, deduplicated)."""
        return int(self.adjacency().nnz // 2)

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric binary adjacency A (no self-loops, duplicates collapsed)."""
        if self._adjacency is None:
            n = self.n_nodes
            data = np.ones(len(self._rows))
            upper = sp.coo_matrix((data, (self._rows, self._cols)), shape=(n, n))
            matrix = upper + upper.T
            matrix = matrix.tocsr()
            matrix.data[:] = 1.0
            self._adjacency = matrix
        return self._adjacency

    def normalized_adjacency(self, self_loops: bool = True, dtype=None) -> sp.csr_matrix:
        """The paper's Eq. 5: ``Â = f(A + I)`` where f row-averages.

        With ``self_loops=True`` (the paper's choice, following SGC [26])
        every node has at least its own loop so no division by zero occurs.
        ``self_loops=False`` exists for the design ablation — isolated nodes
        then keep an all-zero row.

        ``dtype`` casts the CSR values (e.g. ``float32`` for a float32
        encoder so the propagation does not silently promote); results are
        cached per ``(self_loops, dtype)``.
        """
        key = (bool(self_loops), np.dtype(dtype or np.float64).str, False)
        if key not in self._normalized:
            matrix = self.adjacency()
            if self_loops:
                matrix = (matrix + sp.identity(self.n_nodes, format="csr")).tocsr()
            row_sums = np.asarray(matrix.sum(axis=1)).ravel()
            safe = np.where(row_sums > 0, row_sums, 1.0)
            inv = sp.diags(1.0 / safe)
            normalized = (inv @ matrix).tocsr()
            if dtype is not None:
                normalized = normalized.astype(np.dtype(dtype))
            self._normalized[key] = normalized
        return self._normalized[key]

    def normalized_adjacency_transpose(self, self_loops: bool = True, dtype=None) -> sp.csr_matrix:
        """CSR transpose of :meth:`normalized_adjacency`, cached alongside it.

        The backward pass of every propagation multiplies by ``Â.T``;
        building that transpose once here (instead of per backward call)
        is one of the constant-subgraph caches of the compute refactor.
        """
        key = (bool(self_loops), np.dtype(dtype or np.float64).str, True)
        if key not in self._normalized:
            self._normalized[key] = (
                self.normalized_adjacency(self_loops=self_loops, dtype=dtype).T.tocsr()
            )
        return self._normalized[key]

    def degrees(self) -> np.ndarray:
        """Node degrees including the self-loop (|N_i| in Eq. 1-2)."""
        if self._degrees is None:
            matrix = self.adjacency() + sp.identity(self.n_nodes, format="csr")
            self._degrees = np.asarray(matrix.sum(axis=1)).ravel()
        return self._degrees
