"""Neural layers: Embedding, Linear, Dropout and a small MLP.

These are the only layers the paper's models need — PUP, GC-MC and NGCF are
embedding tables plus sparse graph convolutions; DeepFM adds an MLP tower.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, dropout_mask


class Embedding(Module):
    """A lookup table of ``num_embeddings`` rows of size ``embedding_dim``.

    ``weight`` is the full table; :meth:`__call__` gathers rows by index with
    correct gradient scatter for repeated indices.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        std: float = 0.01,
        dtype=None,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError(
                f"Embedding dims must be positive, got ({num_embeddings}, {embedding_dim})"
            )
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            init.normal(rng, (num_embeddings, embedding_dim), std=std, dtype=dtype),
            name="embedding",
        )

    def __call__(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"[{indices.min()}, {indices.max()}]"
            )
        return self.weight.gather_rows(indices)

    def all(self) -> Tensor:
        """The whole table as a tensor (input to graph convolutions)."""
        return self.weight


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
        dtype=None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform(rng, (in_features, out_features), dtype=dtype),
            name="linear.weight",
        )
        self.bias = Parameter(init.zeros((out_features,), dtype=dtype), name="linear.bias") if bias else None

    def __call__(self, inputs: Tensor) -> Tensor:
        out = inputs.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng or np.random.default_rng()

    def __call__(self, inputs: Tensor) -> Tensor:
        return inputs.dropout(self.rate, self.rng, training=self.training)

    def mask(self, shape: tuple, dtype) -> Optional[np.ndarray]:
        """The multiplier :meth:`__call__` applies to a ``shape`` input.

        ``None`` where the layer is the identity (eval mode, rate 0).  The
        draw advances ``rng`` exactly as dropping out a ``shape`` input
        would; a caller that reads some rows of a table asks for those.
        """
        if not self.training or self.rate <= 0.0:
            return None
        return dropout_mask(shape, dtype, self.rate, self.rng)


class MLP(Module):
    """A stack of Linear+ReLU layers with optional dropout (DeepFM tower)."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        dropout: float = 0.0,
        output_activation: bool = False,
    ) -> None:
        super().__init__()
        if len(layer_sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = rng or np.random.default_rng()
        self.layers = [
            Linear(n_in, n_out, rng=rng)
            for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:])
        ]
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None
        self.output_activation = output_activation

    def __call__(self, inputs: Tensor) -> Tensor:
        out = inputs
        last = len(self.layers) - 1
        for index, layer in enumerate(self.layers):
            out = layer(out)
            if index < last or self.output_activation:
                out = out.relu()
                if self.dropout is not None:
                    out = self.dropout(out)
        return out
