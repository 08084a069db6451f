"""Loss functions: BPR pairwise ranking loss and L2 regularization.

The paper (Eq. 4) trains all models with Bayesian Personalized Ranking:

    L = sum_{(u,i,j)} -ln( sigma(s(u,i)) - sigma(s(u,j)) ) + lambda * ||Theta||^2

Note the unusual form: the sigmoid is applied to each score *before* the
difference.  The de-facto standard BPR is ``-ln sigma(s_i - s_j)``
(softplus of the negative margin).  We implement the standard, numerically
stable form as :func:`bpr_loss` (what the reference PUP code uses) and keep
the literal Eq. 4 as :func:`bpr_loss_paper_eq4` for fidelity experiments.

:func:`fused_bpr_loss` and :func:`fused_l2_on_batch` compute the values of
:func:`bpr_loss` / :func:`l2_on_batch` as *single* registered primitives
instead of chains of elementwise ones; the trainer uses them by default
(``TrainConfig.fused_kernels``, docs/performance.md, "The tape").
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .module import Parameter
from .tensor import Deferred, Tensor, _stable_sigmoid, apply, defvjp, row_blocks


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Standard BPR: mean softplus(neg - pos).

    Equivalent to ``-mean(log sigma(pos - neg))`` but computed with
    ``log(1+exp(x))`` for stability at large margins.
    """
    if pos_scores.shape != neg_scores.shape:
        raise ValueError(
            f"positive/negative score shapes differ: {pos_scores.shape} vs {neg_scores.shape}"
        )
    margin = neg_scores - pos_scores
    return margin.softplus().mean()


def fused_bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """:func:`bpr_loss` as one op that saves only ``sigmoid(neg - pos)``;
    its VJP hands ``∓sigmoid(margin) / n`` to the two score tensors."""
    if pos_scores.shape != neg_scores.shape:
        raise ValueError(
            f"positive/negative score shapes differ: {pos_scores.shape} vs {neg_scores.shape}"
        )
    return apply("fused_bpr_loss", pos_scores, neg_scores)


def _bpr_forward(needs, pos, neg):
    margin = neg - pos
    out = np.asarray(np.logaddexp(0.0, margin).mean(), dtype=margin.dtype)
    return out, (_stable_sigmoid(margin), 1.0 / max(margin.size, 1))


def _bpr_vjp(grad, sig, scale):
    g = sig * (grad * scale)
    return -g, g


defvjp("fused_bpr_loss", _bpr_forward, _bpr_vjp)


def bpr_loss_paper_eq4(pos_scores: Tensor, neg_scores: Tensor, eps: float = 1e-8) -> Tensor:
    """The literal Eq. 4 loss: ``-ln( sigma(s_pos) - sigma(s_neg) )``.

    Only defined when ``sigma(s_pos) > sigma(s_neg)``; we clamp the argument
    by ``eps`` through a softplus-free formulation.  Provided for ablation of
    the loss form, not used by default.
    """
    diff = pos_scores.sigmoid() - neg_scores.sigmoid()
    return -((diff.relu() + eps).log()).mean()


def l2_regularization(params: Iterable[Parameter], weight: float) -> Tensor:
    """``weight * sum ||p||^2`` over the given parameters.

    In recommender practice this is applied to the embeddings *used in the
    batch*; the trainer passes batch embeddings rather than full tables when
    following that convention.
    """
    params = list(params)
    if not params:
        raise ValueError("l2_regularization needs at least one parameter")
    total = (params[0] * params[0]).sum()
    for param in params[1:]:
        total = total + (param * param).sum()
    return total * weight


def l2_on_batch(embeddings: Iterable[Tensor], weight: float, batch_size: int) -> Tensor:
    """L2 penalty over batch embedding slices, averaged per example."""
    embeddings = list(embeddings)
    if not embeddings:
        raise ValueError("l2_on_batch needs at least one tensor")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    total = (embeddings[0] * embeddings[0]).sum()
    for emb in embeddings[1:]:
        total = total + (emb * emb).sum()
    return total * (weight / batch_size)


def fused_l2_on_batch(embeddings: Iterable[Tensor], weight: float, batch_size: int) -> Tensor:
    """:func:`l2_on_batch` as one op: a flat ``sum(e·e)`` accumulated in
    float64, whose VJP defers ``2·(weight/batch)·e`` into each slice's
    gradient until that gradient is read (no squared intermediates)."""
    embeddings = list(embeddings)
    if not embeddings:
        raise ValueError("fused_l2_on_batch needs at least one tensor")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return apply("fused_l2_on_batch", *embeddings, scale=weight / batch_size)


def _l2_forward(needs, *embeddings, scale):
    total = 0.0
    for emb in embeddings:
        flat = emb.reshape(-1)
        total += float(np.dot(flat, flat))
    kept = tuple(emb if need else None for emb, need in zip(embeddings, needs))
    return np.asarray(total * scale, dtype=embeddings[0].dtype), (scale,) + kept


def _l2_vjp(grad, scale, *embeddings):
    factor = 2.0 * scale * grad

    def part(emb):
        def add(buffer):
            if buffer is None:
                return factor * emb
            for rows in row_blocks(emb) if emb.ndim else [()]:
                buffer[rows] += factor * emb[rows]
            return buffer

        return Deferred(add)

    return [None if emb is None else part(emb) for emb in embeddings]


defvjp("fused_l2_on_batch", _l2_forward, _l2_vjp)
