"""GC-MC [van den Berg et al. 2017] — graph convolutional matrix completion.

One graph-convolution layer over the bipartite user-item graph with one-hot
ID input features (as specified in the paper's baseline setup), a dense
transform after aggregation, and a dot-product decoder:

    H = tanh( Â · E · W ),    s(u, i) = h_u · h_i

No price or category information is used — GC-MC is the "graph CF without
attributes" reference point in Table II and Fig 6.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.base import Recommender, ScoreBranch
from ..experiments.registry import register_model
from ..data.dataset import Dataset
from ..nn import Dropout, Embedding, Linear, Tensor
from ._graph import bipartite_normalized_adjacency


@register_model("gcmc", aliases=("gc-mc",))
class GCMC(Recommender):
    """Bipartite GCN encoder + dot-product decoder."""

    name = "GC-MC"

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 64,
        rng: Optional[np.random.Generator] = None,
        embedding_std: float = 0.1,
        dropout: float = 0.1,
    ) -> None:
        super().__init__(dataset)
        rng = rng or np.random.default_rng()
        self.embedding = Embedding(self.n_users + self.n_items, dim, rng=rng, std=embedding_std)
        self.transform = Linear(dim, dim, rng=rng, bias=False)
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None
        self._adjacency = bipartite_normalized_adjacency(
            dataset, dtype=self.embedding.weight.data.dtype
        )

    def _propagate(self) -> Tensor:
        out = self.embedding.all().sparse_matmul(self._adjacency, transpose=self._adjacency.T)
        out = self.transform(out).tanh()
        if self.dropout is not None:
            out = self.dropout(out)
        return out

    def _propagate_inference(self) -> np.ndarray:
        out = self._adjacency @ self.embedding.weight.data
        return np.tanh(out @ self.transform.weight.data)

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
