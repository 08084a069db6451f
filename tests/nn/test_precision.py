"""Precision policy: dtype threading, f32/f64 parity, fused-kernel equivalence."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import (
    Adam,
    Embedding,
    Linear,
    Parameter,
    Tensor,
    bpr_loss,
    default_dtype,
    fused_bpr_loss,
    fused_l2_on_batch,
    init,
    l2_on_batch,
    precision,
    resolve_dtype,
    set_default_dtype,
)


@pytest.fixture(autouse=True)
def _restore_policy():
    yield
    set_default_dtype("float64")


class TestPolicy:
    def test_default_is_float64(self):
        assert default_dtype() == np.float64

    def test_context_manager_scopes_and_restores(self):
        with precision("float32"):
            assert default_dtype() == np.float32
            with precision("float64"):
                assert default_dtype() == np.float64
            assert default_dtype() == np.float32
        assert default_dtype() == np.float64

    def test_set_default_dtype(self):
        set_default_dtype(np.float32)
        assert default_dtype() == np.float32

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="unsupported precision"):
            resolve_dtype("float16")
        with pytest.raises(ValueError, match="unsupported precision"):
            set_default_dtype(np.int64)

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with precision("float32"):
                raise RuntimeError("boom")
        assert default_dtype() == np.float64


class TestTensorDtype:
    def test_tensor_follows_policy(self):
        with precision("float32"):
            assert Tensor([1.0, 2.0]).dtype == np.float32
        assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_supported_arrays_keep_their_dtype(self):
        # A float32 checkpoint must stay float32 even under a float64 default.
        arr = np.ones(3, dtype=np.float32)
        assert Tensor(arr).dtype == np.float32
        assert Tensor(arr.astype(np.float64)).dtype == np.float64

    def test_integer_input_coerced_to_policy(self):
        with precision("float32"):
            assert Tensor(np.arange(3)).dtype == np.float32

    def test_scalar_constants_do_not_promote(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        for result in (x * 2.0, x + 1.0, x / 3.0, x - 0.5, -x, x**2.0, x.mean()):
            assert result.dtype == np.float32, result

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("policy", ["float32", "float64"])
    def test_reflected_constants_take_the_tensor_dtype(self, dtype, policy):
        with precision(policy):
            x = Tensor(np.full(4, 2.0, dtype=dtype), requires_grad=True)
            for result in (1.5 - x, 2.0 / x):
                assert result.dtype == dtype, result
                result.sum().backward()
                assert x.grad.dtype == dtype
                x.zero_grad()
        np.testing.assert_array_equal((1.5 - x).data, np.full(4, -0.5, dtype=dtype))
        np.testing.assert_array_equal((2.0 / x).data, np.ones(4, dtype=dtype))

    def test_ops_and_grads_stay_float32(self):
        x = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = x.matmul(w).tanh().sigmoid().sum()
        assert out.dtype == np.float32
        out.backward()
        assert x.grad.dtype == np.float32
        assert w.grad.dtype == np.float32

    def test_sparse_matmul_casts_matrix(self):
        matrix = sp.random(4, 4, density=0.5, format="csr", random_state=0)  # float64
        x = Tensor(np.ones((4, 2), dtype=np.float32), requires_grad=True)
        out = x.sparse_matmul(matrix)
        assert out.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32

    def test_gather_and_dropout_dtype(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((5, 3), dtype=np.float32), requires_grad=True)
        assert x.gather_rows([0, 2, 2]).dtype == np.float32
        assert x.dropout(0.5, rng, training=True).dtype == np.float32


class TestLayerAndOptimizerDtype:
    def test_layers_follow_policy(self):
        rng = np.random.default_rng(0)
        with precision("float32"):
            emb = Embedding(10, 4, rng=rng)
            lin = Linear(4, 2, rng=rng)
        assert emb.weight.dtype == np.float32
        assert lin.weight.dtype == np.float32
        assert lin.bias.dtype == np.float32

    def test_init_same_seed_across_precisions(self):
        """Draws happen in float64 then cast, so a seed is precision-stable."""
        a = init.normal(np.random.default_rng(7), (4, 3), std=0.1, dtype="float64")
        b = init.normal(np.random.default_rng(7), (4, 3), std=0.1, dtype="float32")
        assert b.dtype == np.float32
        np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_adam_state_matches_param_dtype(self):
        param = Parameter(np.ones(3, dtype=np.float32))
        optimizer = Adam([param], lr=0.1)
        assert all(m.dtype == np.float32 for m in optimizer._m)
        param.grad = np.ones(3, dtype=np.float32)
        optimizer.step()
        assert param.dtype == np.float32

    def test_load_state_dict_casts_to_model_precision(self):
        with precision("float32"):
            emb = Embedding(4, 2, rng=np.random.default_rng(0))
        state = {"weight": np.ones((4, 2), dtype=np.float64)}
        emb.load_state_dict(state)
        assert emb.weight.dtype == np.float32


def _grad_of(dtype: str, seed: int):
    """A small PUP-shaped compute graph; returns (loss value, gradient)."""
    rng = np.random.default_rng(seed)
    table = rng.normal(scale=0.3, size=(20, 6))
    adjacency = sp.random(20, 20, density=0.2, format="csr", random_state=seed)
    users = rng.integers(0, 10, size=8)
    pos = rng.integers(10, 20, size=8)
    neg = rng.integers(10, 20, size=8)

    param = Parameter(table.astype(dtype))
    propagated = param.sparse_matmul(adjacency.astype(dtype)).tanh()
    u, p, n = (propagated.gather_rows(ids) for ids in (users, pos, neg))
    pos_scores = (u * p).sum(axis=1)
    neg_scores = (u * n).sum(axis=1)
    loss = fused_bpr_loss(pos_scores, neg_scores) + fused_l2_on_batch([u, p, n], 1e-3, 8)
    loss.backward()
    return float(loss.item()), param.grad


class TestPrecisionParity:
    """Property: gradients agree across precisions within float32 tolerance."""

    @pytest.mark.parametrize("seed", range(8))
    def test_gradients_agree_f32_vs_f64(self, seed):
        loss64, grad64 = _grad_of("float64", seed)
        loss32, grad32 = _grad_of("float32", seed)
        assert grad32.dtype == np.float32
        assert loss32 == pytest.approx(loss64, rel=1e-4, abs=1e-6)
        np.testing.assert_allclose(grad32, grad64, rtol=5e-3, atol=1e-5)


class TestFusedKernels:
    """The fused kernels compute the same function as the composed ops."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_bpr_matches_composed(self, seed):
        rng = np.random.default_rng(seed)
        pos_data = rng.normal(scale=3.0, size=16)
        neg_data = rng.normal(scale=3.0, size=16)

        pos_a, neg_a = Tensor(pos_data, requires_grad=True), Tensor(neg_data, requires_grad=True)
        composed = bpr_loss(pos_a, neg_a)
        composed.backward()

        pos_b, neg_b = Tensor(pos_data, requires_grad=True), Tensor(neg_data, requires_grad=True)
        fused = fused_bpr_loss(pos_b, neg_b)
        fused.backward()

        assert fused.item() == pytest.approx(composed.item(), rel=1e-12)
        np.testing.assert_allclose(pos_b.grad, pos_a.grad, rtol=1e-12)
        np.testing.assert_allclose(neg_b.grad, neg_a.grad, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_l2_matches_composed(self, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(8, 4)) for _ in range(3)]

        tensors_a = [Tensor(a, requires_grad=True) for a in arrays]
        composed = l2_on_batch(tensors_a, weight=1e-2, batch_size=8)
        composed.backward()

        tensors_b = [Tensor(a, requires_grad=True) for a in arrays]
        fused = fused_l2_on_batch(tensors_b, weight=1e-2, batch_size=8)
        fused.backward()

        assert fused.item() == pytest.approx(composed.item(), rel=1e-12)
        for a, b in zip(tensors_a, tensors_b):
            np.testing.assert_allclose(b.grad, a.grad, rtol=1e-12)

    def test_fused_bpr_stable_at_large_margins(self):
        pos = Tensor(np.array([-500.0, 500.0]), requires_grad=True)
        neg = Tensor(np.array([500.0, -500.0]), requires_grad=True)
        loss = fused_bpr_loss(pos, neg)
        loss.backward()
        assert np.isfinite(loss.item())
        assert np.isfinite(pos.grad).all() and np.isfinite(neg.grad).all()

    def test_fused_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shapes differ"):
            fused_bpr_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        with pytest.raises(ValueError, match="at least one"):
            fused_l2_on_batch([], weight=0.1, batch_size=4)
        with pytest.raises(ValueError, match="batch_size"):
            fused_l2_on_batch([Tensor(np.zeros(3))], weight=0.1, batch_size=0)


class TestInPlaceAdam:
    def test_matches_reference_formulas(self):
        """The allocation-free update equals the textbook Adam step."""
        rng = np.random.default_rng(3)
        data = rng.normal(size=(5, 4))
        grads = [rng.normal(size=(5, 4)) for _ in range(4)]

        param = Parameter(data.copy())
        optimizer = Adam([param], lr=0.05, betas=(0.9, 0.999), eps=1e-8)

        ref, m, v = data.copy(), np.zeros_like(data), np.zeros_like(data)
        for step, grad in enumerate(grads, start=1):
            param.grad = grad.copy()
            optimizer.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat = m / (1.0 - 0.9**step)
            v_hat = v / (1.0 - 0.999**step)
            ref -= 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(param.data, ref, rtol=1e-12)

    def test_skips_params_without_grad(self):
        param = Parameter(np.ones(3))
        before = param.data.copy()
        Adam([param], lr=0.1).step()
        np.testing.assert_array_equal(param.data, before)
