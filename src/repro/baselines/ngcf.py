"""NGCF [Wang et al. 2019] — neural graph collaborative filtering.

Embedding propagation over the bipartite user-item graph.  Per the paper's
baseline setup, the *input feature of item nodes includes the price*: we add
a price-level embedding to each item's ID embedding before propagation
(the paper concatenates one-hot features; summing the embeddings is the
equivalent dense form at equal dimensionality).

One propagation layer in NGCF style with both the linear aggregation term
and the element-wise affinity term:

    E1 = LeakyReLU( Â·E0·W1 + (Â·E0 ⊙ E0)·W2 )

and the final representation is the concatenation ``[E0 | E1]``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.base import Recommender, ScoreBranch
from ..experiments.registry import register_model
from ..data.dataset import Dataset
from ..nn import Dropout, Embedding, Linear, Tensor, concat
from ._graph import bipartite_normalized_adjacency

_LEAKY_SLOPE = 0.2


def _leaky_relu(tensor: Tensor) -> Tensor:
    """LeakyReLU built from existing primitives: max(x,0) - slope*max(-x,0)."""
    return tensor.relu() - (-tensor).relu() * _LEAKY_SLOPE


@register_model("ngcf")
class NGCF(Recommender):
    """One-layer NGCF with price-augmented item input features."""

    name = "NGCF"

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 32,
        rng: Optional[np.random.Generator] = None,
        embedding_std: float = 0.1,
        dropout: float = 0.1,
        use_price_feature: bool = True,
    ) -> None:
        super().__init__(dataset)
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.use_price_feature = use_price_feature
        self.user_embedding = Embedding(self.n_users, dim, rng=rng, std=embedding_std)
        self.item_embedding = Embedding(self.n_items, dim, rng=rng, std=embedding_std)
        self.price_embedding = (
            Embedding(self.n_price_levels, dim, rng=rng, std=embedding_std)
            if use_price_feature
            else None
        )
        self.w_aggregate = Linear(dim, dim, rng=rng, bias=False)
        self.w_interact = Linear(dim, dim, rng=rng, bias=False)
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None
        self._adjacency = bipartite_normalized_adjacency(
            dataset, dtype=self.user_embedding.weight.data.dtype
        )

    # ------------------------------------------------------------------
    def _input_table(self) -> Tensor:
        item_input = self.item_embedding.all()
        if self.use_price_feature:
            price_rows = self.price_embedding(self.item_price_levels)
            item_input = item_input + price_rows
        return concat([self.user_embedding.all(), item_input], axis=0)

    def _propagate(self) -> Tensor:
        e0 = self._input_table()
        aggregated = e0.sparse_matmul(self._adjacency, transpose=self._adjacency.T)
        interact = aggregated * e0
        e1 = _leaky_relu(self.w_aggregate(aggregated) + self.w_interact(interact))
        if self.dropout is not None:
            e1 = self.dropout(e1)
        return concat([e0, e1], axis=1)

    def _propagate_inference(self) -> np.ndarray:
        item_input = self.item_embedding.weight.data
        if self.use_price_feature:
            item_input = item_input + self.price_embedding.weight.data[self.item_price_levels]
        e0 = np.vstack([self.user_embedding.weight.data, item_input])
        aggregated = self._adjacency @ e0
        pre = aggregated @ self.w_aggregate.weight.data + (aggregated * e0) @ self.w_interact.weight.data
        e1 = np.where(pre > 0, pre, _LEAKY_SLOPE * pre)
        return np.hstack([e0, e1])

    # ------------------------------------------------------------------
    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users, items = self._check_pair_shapes(users, items)
        table = self._propagate()
        user_rows = table.gather_rows(users)
        item_rows = table.gather_rows(items + self.n_users)
        return (user_rows * item_rows).sum(axis=1)

    def bpr_forward(
        self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray
    ) -> Tuple[Tensor, Tensor, List[Tensor]]:
        table = self._propagate()
        user_rows = table.gather_rows(users)
        pos_rows = table.gather_rows(pos_items + self.n_users)
        neg_rows = table.gather_rows(neg_items + self.n_users)
        pos = (user_rows * pos_rows).sum(axis=1)
        neg = (user_rows * neg_rows).sum(axis=1)
        return pos, neg, [user_rows, pos_rows, neg_rows]

    # predict_scores inherited: frozen branches + the shared scoring kernel.
    def export_embeddings(self) -> List[ScoreBranch]:
        table = self._propagate_inference()
        return [ScoreBranch(user=table[: self.n_users], item=table[self.n_users :])]
