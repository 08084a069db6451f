"""Optimizers: SGD and Adam, plus a step-decay learning-rate schedule.

The paper trains every model with Adam (initial lr 1e-2) and decays the
learning rate by 10x twice during training; :class:`StepDecay` reproduces
that schedule.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .module import Parameter

#: elements per block of Adam's update: 128 KiB of float32 per operand.
#: Smaller blocks pay more in per-call overhead than they gain in cache.
ADAM_BLOCK = 1 << 15


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Vanilla stochastic gradient descent with optional momentum."""

    def __init__(self, params: Sequence[Parameter], lr: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            if self.momentum > 0:
                velocity *= self.momentum
                velocity += param.grad
                param.data -= self.lr * velocity
            else:
                param.data -= self.lr * param.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    Every row of every parameter is updated every step, fully in place.
    The two moment buffers are preallocated once per parameter (flat, in
    the parameter's own dtype, so a float32 model keeps float32 optimizer
    state).  The update's 13 ufunc passes run per block of
    :data:`ADAM_BLOCK` elements of the flattened parameter, through one
    block-sized scratch buffer shared by every parameter: a block's
    operands stay in cache across the passes, and no full-size temporary
    is ever allocated.  Each element's arithmetic is the same as in one
    whole-array pass, so the result is bit-identical to it.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros(p.data.size, dtype=p.data.dtype) for p in self.params]
        self._v = [np.zeros(p.data.size, dtype=p.data.dtype) for p in self.params]
        # Raw bytes, viewed in each parameter's dtype in turn.
        itemsize = max(p.data.dtype.itemsize for p in self.params)
        self._scratch = np.empty(ADAM_BLOCK * itemsize, dtype=np.uint8)

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            if not param.data.flags.c_contiguous:
                # A reshape of a non-contiguous array is a copy: the update
                # would land in it and be lost.
                raise ValueError(f"Adam updates C-contiguous parameters in place, got {param!r}")
            data = param.data.reshape(-1)
            grad = param.grad.reshape(-1)
            scratch = self._scratch.view(data.dtype)
            for start in range(0, data.size, ADAM_BLOCK):
                stop = min(start + ADAM_BLOCK, data.size)
                self._update(
                    data[start:stop], grad[start:stop], m[start:stop], v[start:stop],
                    scratch[: stop - start], bias1, bias2,
                )

    def _update(self, data, grad, m, v, scratch, bias1: float, bias2: float) -> None:
        """One block of the update; every argument is a 1-D view."""
        # m <- beta1*m + (1-beta1)*grad
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        m += scratch
        # v <- beta2*v + (1-beta2)*grad^2
        v *= self.beta2
        np.multiply(grad, grad, out=scratch)
        scratch *= 1.0 - self.beta2
        v += scratch
        # param <- param - (lr/bias1) * m / (sqrt(v/bias2) + eps)
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        np.divide(m, scratch, out=scratch)
        scratch *= self.lr / bias1
        data -= scratch


class StepDecay:
    """Multiply the optimizer lr by ``factor`` at each epoch in ``milestones``.

    The paper reduces the learning rate "by a factor of 10 twice" over the
    200-epoch run; e.g. ``StepDecay(opt, milestones=[100, 150], factor=0.1)``.
    """

    def __init__(self, optimizer: Optimizer, milestones: Sequence[int], factor: float = 0.1) -> None:
        if factor <= 0:
            raise ValueError(f"decay factor must be positive, got {factor}")
        self.optimizer = optimizer
        self.milestones = sorted(int(m) for m in milestones)
        self.factor = factor
        self._epoch = 0

    def step(self) -> None:
        """Advance one epoch, applying decay if a milestone is crossed."""
        self._epoch += 1
        if self._epoch in self.milestones:
            self.optimizer.lr *= self.factor

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr
