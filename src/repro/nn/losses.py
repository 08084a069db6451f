"""Loss functions: BPR pairwise ranking loss, BCE, and L2 regularization.

The paper (Eq. 4) trains all models with Bayesian Personalized Ranking:

    L = sum_{(u,i,j)} -ln( sigma(s(u,i)) - sigma(s(u,j)) ) + lambda * ||Theta||^2

Note the unusual form: the sigmoid is applied to each score *before* the
difference.  The de-facto standard BPR is ``-ln sigma(s_i - s_j)``
(softplus of the negative margin).  We implement the standard, numerically
stable form as :func:`bpr_loss` (what the reference PUP code uses) and keep
the literal Eq. 4 as :func:`bpr_loss_paper_eq4` for fidelity experiments.

Fused kernels
-------------
:func:`fused_bpr_loss` and :func:`fused_l2_on_batch` compute the same values
as :func:`bpr_loss` / :func:`l2_on_batch` but as *single* autograd nodes
with hand-written backward closures, instead of chains of elementwise graph
nodes.  Per training step that removes roughly a dozen intermediate arrays
and their gradient buffers; the trainer uses the fused forms by default
(``TrainConfig.fused_kernels``); the composed forms are the reference the
fused ones are tested against (docs/performance.md, "Fused kernels").
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .module import Parameter
from .tensor import Tensor, _stable_sigmoid


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
    """Numerically-stable fused BPR: ``mean softplus(neg - pos)`` as one node.

    Forward computes ``log(1 + exp(neg - pos))`` directly on the arrays and
    caches ``sigmoid(neg - pos)``; backward distributes
    ``±sigmoid(margin) / n`` to the two score tensors in a single pass.
    Matches :func:`bpr_loss` to within floating-point round-off.
    """
    if pos_scores.shape != neg_scores.shape:
        raise ValueError(
            f"positive/negative score shapes differ: {pos_scores.shape} vs {neg_scores.shape}"
        )
    margin = neg_scores.data - pos_scores.data
    out_data = np.asarray(np.logaddexp(0.0, margin).mean(), dtype=margin.dtype)
    sig = _stable_sigmoid(margin)
    scale = 1.0 / max(margin.size, 1)
    requires = pos_scores.requires_grad or neg_scores.requires_grad
    track = requires or pos_scores._parents or neg_scores._parents

    def _backward(grad: np.ndarray) -> None:
        g = sig * (grad * scale)
        if neg_scores.requires_grad or neg_scores._parents:
            neg_scores._accumulate_any(g)
        if pos_scores.requires_grad or pos_scores._parents:
            pos_scores._accumulate_any(-g)

    if not track:
        return Tensor(out_data)
    return Tensor(
        out_data, requires_grad=requires, parents=(pos_scores, neg_scores), backward_fn=_backward
    )


def bpr_loss_paper_eq4(pos_scores: Tensor, neg_scores: Tensor, eps: float = 1e-8) -> Tensor:
    """The literal Eq. 4 loss: ``-ln( sigma(s_pos) - sigma(s_neg) )``.

    Only defined when ``sigma(s_pos) > sigma(s_neg)``; we clamp the argument
    by ``eps`` through a softplus-free formulation.  Provided for ablation of
    the loss form, not used by default.
    """
    diff = pos_scores.sigmoid() - neg_scores.sigmoid()
    return -((diff.relu() + eps).log()).mean()


def bce_loss(scores: Tensor, labels: Tensor) -> Tensor:
    """Binary cross-entropy on raw scores (logits), numerically stable.

    ``mean( softplus(s) - s*y )`` == ``-mean( y log p + (1-y) log(1-p) )``.
    """
    if scores.shape != labels.shape:
        raise ValueError(f"score/label shapes differ: {scores.shape} vs {labels.shape}")
    return (scores.softplus() - scores * labels).mean()


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
    """Fused form of :func:`l2_on_batch`: one node over all embedding slices.

    Forward is a flat ``sum(e·e)`` accumulated in float64 (the reduction is
    the numerically delicate part); backward adds ``2·(weight/batch)·e`` to
    each slice with no intermediate squared arrays.
    """
    embeddings = list(embeddings)
    if not embeddings:
        raise ValueError("fused_l2_on_batch needs at least one tensor")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    scale = weight / batch_size
    total = 0.0
    for emb in embeddings:
        flat = emb.data.reshape(-1)
        total += float(np.dot(flat, flat))
    out_data = np.asarray(total * scale, dtype=embeddings[0].data.dtype)
    requires = any(e.requires_grad for e in embeddings)
    track = requires or any(e._parents for e in embeddings)

    def _backward(grad: np.ndarray) -> None:
        for emb in embeddings:
            if emb.requires_grad or emb._parents:
                emb._accumulate_any((2.0 * scale * grad) * emb.data)

    if not track:
        return Tensor(out_data)
    return Tensor(
        out_data, requires_grad=requires, parents=tuple(embeddings), backward_fn=_backward
    )
