"""PUP — Price-aware User Preference-modeling (the paper's contribution).

The full model is two encoder/decoder branches over two copies of the unified
heterogeneous graph:

* **global branch** — decoder over {user, item, price}:
  ``s_g = e_u·e_i + e_u·e_p + e_i·e_p``.  Category nodes participate in the
  propagation (they regularize item embeddings) but not the decoder.
* **category branch** — decoder over {user, category, price}:
  ``s_c = e_u·e_c + e_u·e_p + e_c·e_p``.  Item nodes only bridge.

Final score ``s = s_g + alpha * s_c`` (Eq. 3).  The embedding budget is split
between branches (``global_dim`` / ``category_dim`` — Table V studies this
allocation).

Setting ``use_price`` / ``use_category`` to False produces the paper's slim
variants (Table III and PUP− in Fig 6); with both False the model degrades
to a GCN-encoded matrix factorization.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..data.dataset import Dataset
from ..graph.hetero import HeteroGraph
from ..nn import Tensor
from .base import Recommender, ScoreBranch
from .decoder import pairwise_interaction, pairwise_interaction_numpy
from .encoder import GCNEncoder


class PUP(Recommender):
    """The two-branch price-aware GCN recommender."""

    name = "PUP"

    def __init__(
        self,
        dataset: Dataset,
        global_dim: int = 48,
        category_dim: int = 16,
        alpha: float = 1.0,
        dropout: float = 0.1,
        n_layers: int = 1,
        rng: Optional[np.random.Generator] = None,
        use_price: bool = True,
        use_category: bool = True,
        self_loops: bool = True,
        user_profiles: Optional[np.ndarray] = None,
        n_profiles: int = 0,
    ) -> None:
        super().__init__(dataset)
        if global_dim < 1:
            raise ValueError(f"global_dim must be >= 1, got {global_dim}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        rng = rng or np.random.default_rng()
        self.alpha = alpha
        self.use_price = use_price
        self.use_category = use_category
        self.two_branch = use_price and use_category

        profile_kwargs = dict(user_profiles=user_profiles, n_profiles=n_profiles)
        if self.two_branch:
            if category_dim < 1:
                raise ValueError(f"category_dim must be >= 1, got {category_dim}")
            graph_kwargs = dict(include_prices=True, include_categories=True, **profile_kwargs)
            # Both branches propagate over the *same* structure; sharing one
            # HeteroGraph lets its adjacency/transpose caches serve both
            # encoders instead of being built twice.
            self.global_graph = HeteroGraph(dataset, **graph_kwargs)
            self.category_graph = self.global_graph
            self.global_encoder = GCNEncoder(
                self.global_graph, global_dim, rng=rng, dropout=dropout,
                n_layers=n_layers, self_loops=self_loops,
            )
            self.category_encoder = GCNEncoder(
                self.category_graph, category_dim, rng=rng, dropout=dropout,
                n_layers=n_layers, self_loops=self_loops,
            )
        else:
            # Slim variants put the whole embedding budget in one branch and
            # drop the unused attribute's edges from the graph.
            dim = global_dim + category_dim
            self.global_graph = HeteroGraph(
                dataset,
                include_prices=use_price,
                include_categories=use_category,
                **profile_kwargs,
            )
            self.category_graph = None
            self.global_encoder = GCNEncoder(
                self.global_graph, dim, rng=rng, dropout=dropout,
                n_layers=n_layers, self_loops=self_loops,
            )
            self.category_encoder = None

        space = self.global_graph.space
        self._user_nodes = np.arange(self.n_users)
        self._item_nodes = space.item(np.arange(self.n_items))
        self._category_nodes_of_item = space.category(self.item_categories)
        self._price_nodes_of_item = space.price(self.item_price_levels)

    # ------------------------------------------------------------------
    # Training path (autograd)
    # ------------------------------------------------------------------
    def _step_tables(
        self, users: np.ndarray, item_batches: Tuple[np.ndarray, ...]
    ) -> Tuple[Tensor, Optional[Tensor], np.ndarray]:
        """Propagate the rows a step reads, once per branch.

        The rows are the batch's users and its items' item, price and
        category nodes (as the variant has them), found with a boolean mark
        over the nodes.  ``Â[rows]`` and its transpose are sliced once and
        shared: both encoders hold the same cached adjacency.  Returns the
        two restricted tables and the node -> table row map.
        """
        mark = np.zeros(self.global_graph.n_nodes, dtype=bool)
        mark[users] = True
        for items in item_batches:
            mark[self._item_nodes[items]] = True
            if self.use_price:
                mark[self._price_nodes_of_item[items]] = True
            if self.use_category:
                mark[self._category_nodes_of_item[items]] = True
        rows = np.flatnonzero(mark)
        row_of = np.cumsum(mark) - 1
        operands = self.global_encoder.restrict(rows) if self.global_encoder.n_layers else None
        global_table = self.global_encoder.propagate(rows, operands)
        category_table = None
        if self.two_branch:
            category_table = self.category_encoder.propagate(rows, operands)
        return global_table, category_table, row_of

    def _branch_features(
        self,
        table: Tensor,
        row_of: np.ndarray,
        users: np.ndarray,
        items: np.ndarray,
        branch: str,
    ) -> List[Tensor]:
        """Gather the decoder's feature embeddings for one branch.

        ``table`` holds the rows of the step's nodes, propagated once per
        step by :meth:`GCNEncoder.propagate`; ``row_of`` maps a node id to
        its row.  This is the per-batch ``gather`` half of the encoder's
        propagate/gather split.
        """

        def gather(node_ids: np.ndarray) -> Tensor:
            return GCNEncoder.gather(table, row_of[node_ids])

        user_rows = gather(users)
        if branch == "global":
            features = [user_rows, gather(self._item_nodes[items])]
            if self.use_price:
                features.append(gather(self._price_nodes_of_item[items]))
            if self.use_category and not self.two_branch:
                # Slim "w/ c" variant folds the category into the one decoder;
                # the full model handles categories in the dedicated branch.
                features.append(gather(self._category_nodes_of_item[items]))
            return features
        # category branch: user, category, price (items only bridge)
        return [
            user_rows,
            gather(self._category_nodes_of_item[items]),
            gather(self._price_nodes_of_item[items]),
        ]

    def _score_from_tables(
        self,
        global_table: Tensor,
        category_table: Optional[Tensor],
        row_of: np.ndarray,
        users: np.ndarray,
        items: np.ndarray,
    ) -> Tuple[Tensor, List[Tensor]]:
        global_feats = self._branch_features(global_table, row_of, users, items, "global")
        if len(global_feats) == 2:
            score = (global_feats[0] * global_feats[1]).sum(axis=1)
        else:
            score = pairwise_interaction(global_feats)
        reg = list(global_feats)
        if self.two_branch:
            cat_feats = self._branch_features(category_table, row_of, users, items, "category")
            score = score + pairwise_interaction(cat_feats) * self.alpha
            reg.extend(cat_feats)
        return score, reg

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users, items = self._check_pair_shapes(users, items)
        tables = self._step_tables(users, (items,))
        score, __ = self._score_from_tables(*tables, users, items)
        return score

    def bpr_forward(
        self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray
    ) -> Tuple[Tensor, Tensor, List[Tensor]]:
        """One propagation pass shared by positive and negative scores."""
        users, pos_items = self._check_pair_shapes(users, pos_items)
        __, neg_items = self._check_pair_shapes(users, neg_items)
        tables = self._step_tables(users, (pos_items, neg_items))
        pos_score, pos_reg = self._score_from_tables(*tables, users, pos_items)
        neg_score, neg_reg = self._score_from_tables(*tables, users, neg_items)
        return pos_score, neg_score, pos_reg + neg_reg

    # ------------------------------------------------------------------
    # Inference path (shared with serving)
    # ------------------------------------------------------------------
    # ``predict_scores`` is inherited from :class:`Recommender`: it freezes
    # the score function via :meth:`export_embeddings` and evaluates it with
    # the shared ``score_branches`` kernel, so live evaluation and the
    # serving index are one code path (bit-identical by construction).

    def export_embeddings(self) -> List[ScoreBranch]:
        """Freeze both branches after one propagation pass.

        The branch factors fold the per-item constants (``e_i · e_p`` etc.)
        so that scoring reduces to dense matmuls over the frozen arrays.
        """
        table = self.global_encoder.propagate_inference()
        item_emb = table[self._item_nodes]
        user_emb = table[self._user_nodes]

        if self.two_branch:
            price_emb = table[self._price_nodes_of_item]
            global_branch = ScoreBranch(
                user=user_emb,
                item=item_emb + price_emb,
                item_const=(item_emb * price_emb).sum(axis=1),
            )
            cat_table = self.category_encoder.propagate_inference()
            cat_emb = cat_table[self._category_nodes_of_item]
            cat_price = cat_table[self._price_nodes_of_item]
            category_branch = ScoreBranch(
                user=cat_table[self._user_nodes],
                item=cat_emb + cat_price,
                item_const=(cat_emb * cat_price).sum(axis=1),
                weight=self.alpha,
            )
            return [global_branch, category_branch]

        extras = []
        if self.use_price:
            extras.append(table[self._price_nodes_of_item])
        if self.use_category:
            extras.append(table[self._category_nodes_of_item])
        item_side = item_emb + np.add.reduce(extras) if extras else item_emb
        if extras:
            const = pairwise_interaction_numpy([item_emb] + extras)
        else:
            const = np.zeros(self.n_items, dtype=table.dtype)
        return [ScoreBranch(user=user_emb, item=item_side, item_const=const)]
