"""Tests for optimizers, the lr schedule, and loss functions."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    Parameter,
    StepDecay,
    Tensor,
    bpr_loss,
    bpr_loss_paper_eq4,
    l2_on_batch,
    l2_regularization,
)


def quadratic_loss(param):
    return ((param - 3.0) * (param - 3.0)).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(3))
        opt = SGD([param], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(param).backward()
            opt.step()
        np.testing.assert_allclose(param.data, 3.0, atol=1e-4)

    def test_momentum_converges(self):
        param = Parameter(np.zeros(3))
        opt = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(param).backward()
            opt.step()
        np.testing.assert_allclose(param.data, 3.0, atol=1e-3)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.0)

    def test_skips_none_grad(self):
        param = Parameter(np.ones(2))
        opt = SGD([param], lr=0.1)
        opt.step()  # no backward yet
        np.testing.assert_allclose(param.data, 1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(4))
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(param).backward()
            opt.step()
        np.testing.assert_allclose(param.data, 3.0, atol=1e-3)

    def test_first_step_magnitude_close_to_lr(self):
        # Bias-corrected Adam's first step is ~lr regardless of grad scale.
        param = Parameter(np.array([0.0]))
        opt = Adam([param], lr=0.01)
        (param * 1000.0).sum().backward()
        opt.step()
        assert abs(param.data[0] + 0.01) < 1e-6

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.999))

    def test_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestStepDecay:
    def test_decays_at_milestones(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        sched = StepDecay(opt, milestones=[2, 4], factor=0.1)
        lrs = []
        for _ in range(5):
            sched.step()
            lrs.append(sched.current_lr)
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01, 0.01])

    def test_invalid_factor(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        with pytest.raises(ValueError):
            StepDecay(opt, milestones=[1], factor=0.0)


class TestBPRLoss:
    def test_positive_margin_gives_small_loss(self):
        loss_good = bpr_loss(Tensor([10.0]), Tensor([-10.0]))
        loss_bad = bpr_loss(Tensor([-10.0]), Tensor([10.0]))
        assert loss_good.item() < 1e-6
        assert loss_bad.item() > 10.0

    def test_zero_margin_is_log2(self):
        loss = bpr_loss(Tensor([0.0]), Tensor([0.0]))
        np.testing.assert_allclose(loss.item(), np.log(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bpr_loss(Tensor([1.0, 2.0]), Tensor([1.0]))

    def test_gradient_direction(self):
        pos = Parameter(np.array([0.0]))
        neg = Parameter(np.array([0.0]))
        bpr_loss(pos, neg).backward()
        assert pos.grad[0] < 0  # loss decreases if pos score rises
        assert neg.grad[0] > 0

    def test_paper_eq4_finite_when_ordered(self):
        loss = bpr_loss_paper_eq4(Tensor([2.0]), Tensor([-2.0]))
        assert np.isfinite(loss.item())

    def test_paper_eq4_penalizes_inversion(self):
        good = bpr_loss_paper_eq4(Tensor([2.0]), Tensor([-2.0])).item()
        bad = bpr_loss_paper_eq4(Tensor([-2.0]), Tensor([2.0])).item()
        assert bad > good


class TestL2:
    def test_l2_regularization_value(self):
        p1 = Parameter(np.array([1.0, 2.0]))
        p2 = Parameter(np.array([3.0]))
        loss = l2_regularization([p1, p2], weight=0.5)
        np.testing.assert_allclose(loss.item(), 0.5 * (1 + 4 + 9))

    def test_l2_empty(self):
        with pytest.raises(ValueError):
            l2_regularization([], weight=0.1)

    def test_l2_on_batch_scaling(self):
        emb = Tensor(np.ones((4, 2)))
        loss = l2_on_batch([emb], weight=1.0, batch_size=4)
        np.testing.assert_allclose(loss.item(), 8.0 / 4.0)

    def test_l2_on_batch_invalid(self):
        with pytest.raises(ValueError):
            l2_on_batch([Tensor([1.0])], weight=0.1, batch_size=0)
        with pytest.raises(ValueError):
            l2_on_batch([], weight=0.1, batch_size=1)

    def test_l2_gradient(self):
        p = Parameter(np.array([2.0]))
        l2_regularization([p], weight=1.0).backward()
        np.testing.assert_allclose(p.grad, [4.0])
