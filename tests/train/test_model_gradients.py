"""Every trainable registered model's BPR training loss against a central difference.

The loss is the one ``Trainer`` builds for a step — BPR on the positive and
negative scores, the batch L2 term and any auxiliary objective — on a tiny
synthetic dataset, in training mode.  ``check_grads`` (``tests/conftest.py``)
compares its backward gradient with respect to every parameter, projected
on a random direction, with a central difference along that direction.
Dropout draws from a generator re-seeded before each evaluation, so all
three evaluations see the same mask.
"""

import numpy as np
import pytest

from repro.data import NegativeSampler, SyntheticConfig, generate
from repro.experiments.registry import available_models, build_model
from repro.nn import (
    Dropout,
    Module,
    bpr_loss,
    fused_bpr_loss,
    fused_l2_on_batch,
    l2_on_batch,
    precision,
)
from repro.train import TrainConfig

DATASET, _ = generate(
    SyntheticConfig(
        n_users=12, n_items=15, n_categories=3, n_price_levels=4,
        interactions_per_user=4, seed=2,
    )
)
TRAINABLE = [name for name in available_models() if build_model(name, DATASET, seed=0).trainable]
L2_WEIGHT = TrainConfig().l2_weight


def dropouts(module):
    """Every ``Dropout`` inside ``module``, found as ``Module.train`` finds them."""
    for value in vars(module).values():
        if isinstance(value, dict):
            children = list(value.values())
        elif isinstance(value, (list, tuple)):
            children = list(value)
        else:
            children = [value]
        for child in children:
            if isinstance(child, Dropout):
                yield child
            elif isinstance(child, Module):
                yield from dropouts(child)


def training_loss(model, batch, fused):
    users, pos_items, neg_items = batch
    pos_scores, neg_scores, reg = model.bpr_forward(users, pos_items, neg_items)
    loss = (fused_bpr_loss if fused else bpr_loss)(pos_scores, neg_scores)
    if reg:
        penalty = fused_l2_on_batch if fused else l2_on_batch
        loss = loss + penalty(reg, L2_WEIGHT, len(users))
    auxiliary = model.auxiliary_loss(users, pos_items)
    if auxiliary is not None:
        loss = loss + auxiliary
    return loss


def test_every_registered_model_but_itempop_is_trainable():
    assert set(available_models()) - set(TRAINABLE) == {"itempop"}


@pytest.mark.parametrize("fused", (True, False), ids=("fused", "composed"))
@pytest.mark.parametrize("dtype", ("float32", "float64"))
@pytest.mark.parametrize("name", TRAINABLE)
def test_training_loss_gradient(check_grads, name, dtype, fused):
    with precision(dtype):
        model = build_model(name, DATASET, seed=0)
    model.train()
    batch = next(NegativeSampler(DATASET, np.random.default_rng(1)).epoch_batches(16))
    masks = list(dropouts(model))

    def loss(*params):
        for dropout in masks:
            dropout.rng = np.random.default_rng(4)
        return training_loss(model, batch, fused)

    params = model.parameters()
    grads = check_grads(loss, *params)
    assert all(grad.dtype == param.dtype for grad, param in zip(grads, params))
    assert any(np.any(grad) for grad in grads)


@pytest.mark.parametrize("name", TRAINABLE)
def test_float32_graph_never_promotes(name):
    # A float64 constant anywhere in the graph (a bias, a target matrix)
    # silently promotes the whole step; under float32 the scores, the loss,
    # every parameter and every gradient stay float32.
    with precision("float32"):
        model = build_model(name, DATASET, seed=0)
        model.train()
        batch = next(NegativeSampler(DATASET, np.random.default_rng(1)).epoch_batches(16))
        pos_scores, neg_scores, _ = model.bpr_forward(*batch)
        loss = training_loss(model, batch, fused=True)
        loss.backward()
    assert pos_scores.dtype == neg_scores.dtype == np.float32
    assert loss.dtype == np.float32
    model.eval()
    assert model.predict_scores(np.arange(3)).dtype == np.float32
    for param_name, param in model.named_parameters():
        assert param.dtype == np.float32, param_name
        assert param.grad is not None and param.grad.dtype == np.float32, param_name
