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
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..data.dataset import Dataset

if TYPE_CHECKING:
    import scipy.sparse as sp


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

    The graph keeps the dataset's train interactions and item attributes by
    reference, never a copy, and derives its edge list when
    :meth:`adjacency` is called; only the row-normalized forms are cached.
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
        if user_profiles is not None:
            NodeSpace._check(user_profiles, 0, n_profiles, "profile")
        self.include_prices = include_prices
        self.include_categories = include_categories
        self._interactions = (dataset.train.users, dataset.train.items)
        self._item_categories = dataset.item_categories
        self._item_price_levels = dataset.item_price_levels
        self._user_profiles = user_profiles
        # Constant-subgraph cache: the row-normalized forms never change
        # after construction, so each is built at most once per (variant,
        # dtype) instead of per forward.  Cached matrices are shared —
        # callers must treat them as read-only.
        self._normalized: dict = {}

    @property
    def n_nodes(self) -> int:
        return self.space.total

    @property
    def n_edges(self) -> int:
        """Undirected edge count (before self-loops, deduplicated)."""
        return int(self.adjacency().nnz // 2)

    def _edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Global (row, col) node ids of every edge, one direction each."""
        space = self.space
        users, items = self._interactions
        rows = [space.user(users)]
        cols = [space.item(items)]
        item_ids = np.arange(space.n_items)
        if self.include_categories:
            rows.append(space.item(item_ids))
            cols.append(space.category(self._item_categories))
        if self.include_prices:
            rows.append(space.item(item_ids))
            cols.append(space.price(self._item_price_levels))
        if self._user_profiles is not None:
            rows.append(space.user(np.arange(space.n_users)))
            cols.append(space.profile(self._user_profiles))
        return np.concatenate(rows), np.concatenate(cols)

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric binary adjacency A (no self-loops, duplicates collapsed).

        Built on each call: only :meth:`normalized_adjacency` is cached.
        scipy loads here, at a process's first graph build, not on import."""
        import scipy.sparse as sp

        n = self.n_nodes
        rows, cols = self._edges()
        upper = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        matrix = (upper + upper.T).tocsr()
        matrix.data[:] = 1.0
        return matrix

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
            import scipy.sparse as sp

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
        """CSR copy of :meth:`normalized_adjacency`'s transpose, cached beside it.

        No encoder reads it: a backward pass multiplies by ``Â.T`` as the
        CSC view of ``Â``'s own arrays, which costs no second matrix.  It
        stays for callers that want the row-major copy.
        """
        key = (bool(self_loops), np.dtype(dtype or np.float64).str, True)
        if key not in self._normalized:
            self._normalized[key] = (
                self.normalized_adjacency(self_loops=self_loops, dtype=dtype).T.tocsr()
            )
        return self._normalized[key]

    def degrees(self) -> np.ndarray:
        """Node degrees including the self-loop (|N_i| in Eq. 1-2)."""
        return np.asarray(self.adjacency().sum(axis=1)).ravel() + 1.0
