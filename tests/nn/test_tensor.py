"""Unit tests for the autograd Tensor: forward values and exact gradients."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import Tensor, concat


class TestForward:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_add_scalar(self):
        out = Tensor([1.0, 2.0]) + 5.0
        np.testing.assert_allclose(out.data, [6.0, 7.0])

    def test_radd(self):
        out = 5.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [6.0])

    def test_sub(self):
        out = Tensor([5.0]) - Tensor([2.0])
        np.testing.assert_allclose(out.data, [3.0])

    def test_rsub(self):
        out = 10.0 - Tensor([4.0])
        np.testing.assert_allclose(out.data, [6.0])

    def test_mul(self):
        out = Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])
        np.testing.assert_allclose(out.data, [8.0, 15.0])

    def test_div(self):
        out = Tensor([8.0]) / Tensor([2.0])
        np.testing.assert_allclose(out.data, [4.0])

    def test_rtruediv(self):
        out = 8.0 / Tensor([2.0])
        np.testing.assert_allclose(out.data, [4.0])

    def test_neg(self):
        out = -Tensor([1.0, -2.0])
        np.testing.assert_allclose(out.data, [-1.0, 2.0])

    def test_pow(self):
        out = Tensor([2.0, 3.0]) ** 2
        np.testing.assert_allclose(out.data, [4.0, 9.0])

    def test_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_tanh_range(self):
        out = Tensor(np.linspace(-10, 10, 21)).tanh()
        assert np.all(np.abs(out.data) <= 1.0)

    def test_sigmoid_extremes_stable(self):
        out = Tensor([-1000.0, 0.0, 1000.0]).sigmoid()
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)
        assert np.all(np.isfinite(out.data))

    def test_relu(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_softplus_stable_large(self):
        out = Tensor([800.0, -800.0]).softplus()
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[0], 800.0)
        np.testing.assert_allclose(out.data[1], 0.0, atol=1e-12)

    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.0, 2.0])
        np.testing.assert_allclose(x.exp().log().data, x.data, atol=1e-12)

    def test_sum_axis(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(x.sum(axis=0).data, [4.0, 6.0])
        np.testing.assert_allclose(x.sum(axis=1).data, [3.0, 7.0])
        np.testing.assert_allclose(x.sum().data, 10.0)

    def test_mean(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(x.mean().data, 2.5)
        np.testing.assert_allclose(x.mean(axis=0).data, [2.0, 3.0])

    def test_reshape(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape((3, 2)).shape == (3, 2)

    def test_transpose(self):
        x = Tensor([[1.0, 2.0, 3.0]])
        assert x.T.shape == (3, 1)

    def test_gather_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = x.gather_rows([2, 0, 2])
        np.testing.assert_allclose(out.data, [[6, 7, 8], [0, 1, 2], [6, 7, 8]])

    def test_gather_rows_out_of_range_via_embedding(self):
        # raw gather is unchecked; Embedding layer checks (see layers tests)
        x = Tensor(np.arange(6.0).reshape(2, 3))
        with pytest.raises(IndexError):
            _ = x.gather_rows([5]).data  # numpy raises on fancy index

    def test_slice_cols(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        out = x.slice_cols(1, 3)
        np.testing.assert_allclose(out.data, x.data[:, 1:3])

    def test_concat_axis0(self):
        out = concat([Tensor([[1.0]]), Tensor([[2.0]])], axis=0)
        np.testing.assert_allclose(out.data, [[1.0], [2.0]])

    def test_concat_axis1(self):
        out = concat([Tensor([[1.0]]), Tensor([[2.0]])], axis=1)
        np.testing.assert_allclose(out.data, [[1.0, 2.0]])

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat([])

    def test_sparse_matmul_forward(self):
        mat = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        x = Tensor([[1.0, 1.0], [1.0, 1.0]])
        out = x.sparse_matmul(mat)
        np.testing.assert_allclose(out.data, [[1.0, 1.0], [2.0, 2.0]])

    def test_sparse_matmul_type_check(self):
        with pytest.raises(TypeError):
            Tensor([[1.0]]).sparse_matmul(np.eye(1))

    def test_item(self):
        assert Tensor([3.5]).item() == 3.5

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach()
        z = (y * 3.0).sum()
        z.backward()
        assert x.grad is None

    def test_backward_nonscalar_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_backward_seed_shape_check(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward(np.ones(3))

    def test_repr(self):
        rep = repr(Tensor(np.zeros((2, 3)), name="emb"))
        assert "shape=(2, 3)" in rep and "emb" in rep


class TestGradients:
    """Analytic gradients must match central finite differences."""

    @pytest.fixture(autouse=True)
    def _bind_check_grads(self, check_grads):
        self.check_grads = check_grads

    def check(self, build, shape, seed=0):
        x = np.random.default_rng(seed).normal(size=shape)
        self.check_grads(lambda t: build(t).sum(), x)

    def test_add(self):
        self.check(lambda t: t + t, (3, 2))

    def test_mul(self):
        self.check(lambda t: t * t, (3, 2))

    def test_sub_const(self):
        self.check(lambda t: t - 3.0, (4,))

    def test_div(self):
        self.check(lambda t: t / 2.0, (4,))

    def test_div_by_tensor(self):
        self.check(lambda t: 1.0 / (t * t + 2.0), (4,))

    def test_pow(self):
        self.check(lambda t: t**3, (5,))

    def test_tanh(self):
        self.check(lambda t: t.tanh(), (4, 3))

    def test_sigmoid(self):
        self.check(lambda t: t.sigmoid(), (6,))

    def test_relu(self):
        self.check(lambda t: (t + 0.1).relu(), (5,), seed=3)

    def test_exp(self):
        self.check(lambda t: t.exp(), (4,))

    def test_log(self):
        self.check(lambda t: (t * t + 1.0).log(), (4,))

    def test_sqrt(self):
        self.check(lambda t: (t * t + 1.0).sqrt(), (4,))

    def test_softplus(self):
        self.check(lambda t: t.softplus(), (6,))

    def test_matmul_left(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 2))
        self.check(lambda t: t.matmul(Tensor(w)), (4, 3))

    def test_matmul_right(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 3))

        x = rng.normal(size=(3, 2))
        self.check_grads(lambda t: Tensor(a).matmul(t).sum(), x)

    def test_sum_axis0(self):
        self.check(lambda t: t.sum(axis=0), (3, 4))

    def test_sum_keepdims(self):
        self.check(lambda t: t.sum(axis=1, keepdims=True), (3, 4))

    def test_mean(self):
        self.check(lambda t: t.mean(axis=1), (3, 4))

    def test_reshape(self):
        self.check(lambda t: t.reshape(6) * 2.0, (2, 3))

    def test_transpose(self):
        self.check(lambda t: t.T.tanh(), (2, 3))

    def test_gather_repeated_rows_accumulate(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        out = x.gather_rows([0, 0, 1]).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])

    def test_slice_cols_grad(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        x.slice_cols(1, 3).sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 1, 1, 0], [0, 1, 1, 0]])

    def test_sparse_matmul_grad(self):
        rng = np.random.default_rng(5)
        dense = rng.normal(size=(4, 4))
        dense[dense < 0.3] = 0.0
        mat = sp.csr_matrix(dense)
        x = rng.normal(size=(4, 3))
        self.check_grads(lambda t: t.sparse_matmul(mat).sum(), x)

    def test_concat_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        (concat([a, b], axis=0) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, 2 * np.ones((3, 2)))

    def test_broadcast_add_bias(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        bias = Tensor(np.zeros(2), requires_grad=True)
        ((w + bias) * 1.0).sum().backward()
        np.testing.assert_allclose(bias.grad, [3.0, 3.0])

    def test_broadcast_mul(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        s = Tensor(np.array(2.0), requires_grad=True)
        (a * s).sum().backward()
        np.testing.assert_allclose(s.grad, 12.0)

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # y = x*x used twice: grad should be 2 * (2x) at x=3 -> 12... verify
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        z = (y + y).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([0.1], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_dropout_eval_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((10, 10)))
        out = x.dropout(0.5, rng, training=False)
        assert out is x

    def test_dropout_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((2000, 1)), requires_grad=True)
        out = x.dropout(0.5, rng, training=True)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        # kept fraction near 0.5
        assert abs((out.data > 0).mean() - 0.5) < 0.05

    def test_dropout_invalid_rate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Tensor([1.0]).dropout(1.0, rng, training=True)
