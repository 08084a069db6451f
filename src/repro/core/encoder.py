"""The graph convolutional encoder of Section III-B / IV-A.

One branch = one embedding table over all heterogeneous nodes plus one
propagation step

    F_out = tanh( Â · W )          (Eq. 6, with F_in = I so F_in·W = W)

where ``Â = row_normalize(A + I)`` (Eq. 5).  Feature-level dropout
(Section IV-C) is applied to the propagated representations at training
time.  ``n_layers`` stacks the propagation (the paper uses one layer; more
are supported for ablations).

The forward pass is split in two so the trainer and the serving exporter
share one code path:

* :meth:`GCNEncoder.propagate` — the rows a training step reads of the
  propagated node table (autograd :class:`~repro.nn.Tensor`); plain NumPy
  over every row via :meth:`propagate_inference` for export/eval;
* :meth:`GCNEncoder.gather` — per-batch row lookup from a propagated table.

A step's decoder reads only its batch's user, item, category and price rows,
so the last layer multiplies only ``Â[rows]`` (the rows of a minibatch's
receptive field, as in GraphSAGE) and dropout draws its mask over those
rows only.  Earlier layers feed every node of the last one and stay whole.
Each row is the same sum in the same order as in the whole product, and the
backward ``Â[rows]ᵀ · G`` adds the same terms in the same order less the
``+0.0`` of unread rows.  Each read row still gets iid Bernoulli(keep)/keep
multipliers and unread rows never reach the loss, so the method is the
paper's; only the dropout RNG stream differs from a whole-table draw.

``Â`` is a constant subgraph: it is built once per graph, in the encoder's
precision, instead of per forward call.  Every backward pass multiplies by
a transpose that is the CSC view of its CSR operand's own arrays — ``Â.T``
for a whole-table layer, ``Â[rows]ᵀ`` for a step's last — so no second
copy of either is built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..graph.hetero import HeteroGraph
from ..nn import Dropout, Embedding, Module, Tensor

if TYPE_CHECKING:
    import scipy.sparse as sp


class GCNEncoder(Module):
    """Embedding layer + embedding propagation + neighbor aggregation."""

    def __init__(
        self,
        graph: HeteroGraph,
        dim: int,
        rng: Optional[np.random.Generator] = None,
        dropout: float = 0.1,
        n_layers: int = 1,
        embedding_std: float = 0.1,
        self_loops: bool = True,
    ) -> None:
        super().__init__()
        if dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {dim}")
        if n_layers < 0:
            raise ValueError(f"n_layers must be >= 0, got {n_layers}")
        rng = rng or np.random.default_rng()
        self.graph = graph
        self.dim = dim
        self.n_layers = n_layers
        self.embedding = Embedding(graph.n_nodes, dim, rng=rng, std=embedding_std)
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None
        dtype = self.embedding.weight.data.dtype
        self._adjacency = graph.normalized_adjacency(self_loops=self_loops, dtype=dtype)

    def restrict(self, rows: np.ndarray) -> Tuple[sp.csr_matrix, sp.csc_matrix]:
        """``Â[rows]`` and its transpose: the last layer's operands for a
        step that reads the sorted, distinct node ids ``rows``.

        The transpose is the CSC view of the slice's own arrays, so a step
        builds no second copy of it."""
        adjacency = self._adjacency[rows]
        return adjacency, adjacency.T

    def propagate(
        self,
        rows: Optional[np.ndarray] = None,
        operands: Optional[Tuple[sp.csr_matrix, sp.spmatrix]] = None,
    ) -> Tensor:
        """Rows ``rows`` of the propagated node table, ``(len(rows), dim)``.

        ``rows`` are sorted, distinct node ids (every node when omitted);
        ``operands`` is :meth:`restrict` of them, passed in by a caller that
        shares one slice between encoders over the same adjacency.  With
        ``n_layers=0`` the rows are the raw embeddings (a useful ablation:
        PUP without graph convolution).  Dropout draws its mask over these
        rows alone: every returned row gets its own iid multipliers, and a
        row the step does not read gets none.
        """
        if rows is None:
            rows = np.arange(self.graph.n_nodes)
            operands = (self._adjacency, self._adjacency.T)
        out = self.embedding.all()
        for _ in range(self.n_layers - 1):
            out = out.sparse_matmul(self._adjacency, transpose=self._adjacency.T).tanh()
        if self.n_layers:
            adjacency, transpose = operands or self.restrict(rows)
            out = out.sparse_matmul(adjacency, transpose=transpose).tanh()
        else:
            out = out.gather_rows(rows)
        mask = None if self.dropout is None else self.dropout.mask((len(rows), self.dim), out.dtype)
        if mask is not None:
            out = out * Tensor(mask)
        return out

    def __call__(self) -> Tensor:
        return self.propagate()

    @staticmethod
    def gather(table: Tensor, node_ids: np.ndarray) -> Tensor:
        """Batch lookup into a propagated table (gradient-scattering)."""
        return table.gather_rows(node_ids)

    def propagate_inference(self) -> np.ndarray:
        """Pure-NumPy forward pass for evaluation (no graph recording)."""
        out = self.embedding.weight.data
        for _ in range(self.n_layers):
            out = np.tanh(self._adjacency @ out)
        return out
