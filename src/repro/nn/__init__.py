"""Pure-NumPy neural-network substrate (autograd, layers, optimizers, losses).

This package replaces PyTorch for the reproduction: reverse-mode autograd
:class:`~repro.nn.tensor.Tensor`, embedding/linear/dropout layers, SGD/Adam
optimizers with step decay, and the BPR losses used in the paper.
"""

from .precision import default_dtype, precision, resolve_dtype, set_default_dtype
from .tensor import Tensor, concat, stack_sum, unbroadcast
from .module import Module, Parameter
from .layers import Embedding, Linear, Dropout, MLP
from .optim import SGD, Adam, StepDecay
from .losses import (
    bpr_loss,
    bpr_loss_paper_eq4,
    fused_bpr_loss,
    fused_l2_on_batch,
    l2_regularization,
    l2_on_batch,
)
from . import init

__all__ = [
    "Tensor",
    "concat",
    "stack_sum",
    "unbroadcast",
    "Module",
    "Parameter",
    "Embedding",
    "Linear",
    "Dropout",
    "MLP",
    "SGD",
    "Adam",
    "StepDecay",
    "bpr_loss",
    "bpr_loss_paper_eq4",
    "fused_bpr_loss",
    "fused_l2_on_batch",
    "l2_regularization",
    "l2_on_batch",
    "init",
    "precision",
    "default_dtype",
    "set_default_dtype",
    "resolve_dtype",
]
