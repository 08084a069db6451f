"""The pairwise-interaction (FM-style) decoder of Section III-C / IV-B.

Given a list of per-example embedding tensors ``[e_1, ..., e_k]`` (all of
shape ``(batch, dim)``) the decoder computes the sum of inner products over
every unordered pair:

    sum_{f < g} e_f · e_g  =  1/2 [ (sum_f e_f)^2 - sum_f e_f^2 ]   (Eq. 7)

which is linear in the number of features — the classic FM trick the paper
highlights in Section IV-B.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn import Tensor
from ..nn.tensor import Deferred, apply, defvjp, row_blocks


def pairwise_interaction(embeddings: Sequence[Tensor]) -> Tensor:
    """Sum of all pairwise inner products per row; returns shape ``(batch,)``.

    One registered op whose record saves only ``S = Σ e_f`` (the inputs are
    referenced, not copied).  Its VJP gives ``g·(S − e_f)`` to each input,
    rounded as the composed ``stack_sum`` / ``e*e`` / ``total*total`` chain
    rounds it: ``(g/2)·S`` twice, then ``(−g/2)·e_f`` twice, added into the
    input's gradient in that order.
    """
    embeddings = list(embeddings)
    if len(embeddings) < 2:
        raise ValueError(f"need at least two feature embeddings, got {len(embeddings)}")
    shapes = {e.shape for e in embeddings}
    if len(shapes) != 1:
        raise ValueError(f"all embeddings must share a shape, got {sorted(shapes)}")
    return apply("pairwise_interaction", *embeddings)


def _pairwise_forward(needs, *embeddings):
    # Left to right, as stack_sum adds: the same bits as the composed chain.
    total = embeddings[0] + embeddings[1]
    squares = embeddings[0] * embeddings[0]
    squares += embeddings[1] * embeddings[1]
    for e in embeddings[2:]:
        total += e
        squares += e * e
    out = ((total * total).sum(axis=1) - squares.sum(axis=1)) * 0.5
    kept = tuple(e if need else None for e, need in zip(embeddings, needs))
    return out, (total,) + kept


def _pairwise_vjp(grad, total, *embeddings):
    half = (grad * 0.5)[:, None]

    def part(e):
        def add(buffer):
            fresh = buffer is None
            if fresh:
                buffer = np.empty_like(e)
            for rows in row_blocks(e):  # temporaries of one block at a time
                from_total = half[rows] * total[rows]
                from_total += from_total
                if fresh:
                    buffer[rows] = from_total
                else:
                    buffer[rows] += from_total
                from_square = -half[rows] * e[rows]
                buffer[rows] += from_square
                buffer[rows] += from_square
            return buffer

        return Deferred(add)

    return [None if e is None else part(e) for e in embeddings]


defvjp("pairwise_interaction", _pairwise_forward, _pairwise_vjp)


def pairwise_interaction_numpy(embeddings: Sequence[np.ndarray]) -> np.ndarray:
    """NumPy twin of :func:`pairwise_interaction` for inference paths."""
    embeddings = list(embeddings)
    if len(embeddings) < 2:
        raise ValueError(f"need at least two feature embeddings, got {len(embeddings)}")
    total = np.add.reduce(embeddings)
    square_of_sum = (total * total).sum(axis=-1)
    sum_of_squares = np.add.reduce([e * e for e in embeddings]).sum(axis=-1)
    return 0.5 * (square_of_sum - sum_of_squares)
