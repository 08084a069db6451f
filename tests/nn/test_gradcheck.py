"""Every autograd primitive and every loss against a central difference.

Each case builds a scalar from one primitive (or loss) and hands it to the
shared ``check_grads`` fixture (``tests/conftest.py``), in float32 and
float64.  Non-scalar outputs are reduced through a fixed random weighting,
so the upstream gradient a primitive sees is not all ones.  Coverage tests
fail when a new ``Tensor`` op, a new loss or a new entry of the primitive
registry (``repro.nn.tensor.REGISTRY``) has no case here.
"""

import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import pairwise_interaction
from repro.nn import Tensor, concat, losses, stack_sum
from repro.nn.tensor import REGISTRY

DTYPES = ("float32", "float64")

SPARSE = sp.random(5, 4, density=0.5, random_state=np.random.default_rng(9), format="csr")


def normal(*shape):
    return lambda rng: rng.normal(size=shape)


def positive(*shape):
    return lambda rng: rng.uniform(0.5, 2.0, size=shape)


def away_from_zero(*shape):
    """Magnitudes in [0.2, 1.5] with random signs: no kink within a step."""
    return lambda rng: rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def shifted(offset, *shape):
    return lambda rng: rng.normal(size=shape) * 0.3 + offset


#: case id -> (function of the leaf tensors, one input maker per leaf).  The
#: id before any ``[`` names the op it exercises.
PRIMITIVES = {
    "__add__": (lambda a, b: a + b, [normal(3, 4), normal(3, 4)]),
    "__add__[broadcast]": (lambda a, b: a + b, [normal(3, 4), normal(4)]),
    "__radd__": (lambda a: 2.0 + a, [normal(3, 4)]),
    "__sub__": (lambda a, b: a - b, [normal(3, 4), normal(3, 1)]),
    "__rsub__": (lambda a: 1.5 - a, [normal(3, 4)]),
    "__mul__": (lambda a, b: a * b, [normal(3, 4), normal(3, 4)]),
    "__mul__[broadcast]": (lambda a, b: a * b, [normal(3, 4), normal()]),
    "__rmul__": (lambda a: 2.5 * a, [normal(3, 4)]),
    "__truediv__": (lambda a, b: a / b, [normal(3, 4), positive(3, 4)]),
    "__rtruediv__": (lambda b: 1.0 / b, [positive(3, 4)]),
    "__neg__": (lambda a: -a, [normal(3, 4)]),
    "__pow__": (lambda a: a**3, [normal(3, 4)]),
    "__pow__[fractional]": (lambda a: a**1.5, [positive(3, 4)]),
    "__matmul__": (lambda a, b: a @ b, [normal(4, 3), normal(3, 2)]),
    "matmul": (lambda a, b: a.matmul(b), [normal(4, 3), normal(3, 2)]),
    "matmul[matrix-vector]": (lambda a, v: a.matmul(v), [normal(4, 3), normal(3)]),
    "matmul[vector-matrix]": (lambda v, b: v.matmul(b), [normal(4), normal(4, 2)]),
    "sparse_matmul": (lambda a: a.sparse_matmul(SPARSE), [normal(4, 3)]),
    "sparse_matmul[cached transpose]": (
        lambda a: a.sparse_matmul(SPARSE, transpose=SPARSE.T.tocsr()), [normal(4, 3)]
    ),
    "tanh": (lambda a: a.tanh(), [normal(3, 4)]),
    "sigmoid": (lambda a: a.sigmoid(), [normal(3, 4)]),
    "relu": (lambda a: a.relu(), [away_from_zero(3, 4)]),
    "exp": (lambda a: a.exp(), [normal(3, 4)]),
    "log": (lambda a: a.log(), [positive(3, 4)]),
    "sqrt": (lambda a: a.sqrt(), [positive(3, 4)]),
    "softplus": (lambda a: a.softplus(), [normal(3, 4)]),
    "sum": (lambda a: a.sum(), [normal(3, 4)]),
    "sum[axis]": (lambda a: a.sum(axis=0), [normal(3, 4)]),
    "sum[keepdims]": (lambda a: a.sum(axis=1, keepdims=True), [normal(3, 4)]),
    "sum[axes]": (lambda a: a.sum(axis=(0, 2)), [normal(2, 3, 4)]),
    "mean": (lambda a: a.mean(), [normal(3, 4)]),
    "mean[axis]": (lambda a: a.mean(axis=1), [normal(3, 4)]),
    "reshape": (lambda a: a.reshape(2, 6), [normal(3, 4)]),
    "transpose": (lambda a: a.transpose(), [normal(3, 4)]),
    "transpose[T]": (lambda a: a.T, [normal(3, 4)]),
    "gather_rows": (lambda a: a.gather_rows([2, 0, 2, 1, 2]), [normal(3, 4)]),
    "slice_cols": (lambda a: a.slice_cols(1, 3), [normal(3, 4)]),
    "dropout": (lambda a: a.dropout(0.4, np.random.default_rng(7)), [normal(5, 4)]),
    "concat": (lambda a, b: concat([a, b], axis=0), [normal(2, 4), normal(3, 4)]),
    "concat[axis 1]": (lambda a, b: concat([a, b], axis=1), [normal(3, 2), normal(3, 4)]),
    "stack_sum": (lambda a, b, c: stack_sum([a, b, c]), [normal(3, 4), normal(3, 4), normal(4)]),
    "pairwise_interaction": (
        lambda a, b, c: pairwise_interaction([a, b, c]), [normal(5, 3), normal(5, 3), normal(5, 3)]
    ),
    "pairwise_interaction[two]": (lambda a, b: pairwise_interaction([a, b]), [normal(4, 2), normal(4, 2)]),
}

#: loss -> one input maker per tensor argument
LOSSES = {
    "bpr_loss": [normal(6), normal(6)],
    "fused_bpr_loss": [normal(6), normal(6)],
    "bpr_loss_paper_eq4": [shifted(2.0, 6), shifted(-2.0, 6)],
    "l2_regularization": [normal(3, 4), normal(5)],
    "l2_on_batch": [normal(4, 3), normal(4, 3), normal(4, 2)],
    "fused_l2_on_batch": [normal(4, 3), normal(4, 3), normal(4, 2)],
}

#: each fused kernel beside the composed form it must match
FUSED = {"fused_bpr_loss": "bpr_loss", "fused_l2_on_batch": "l2_on_batch"}


def call_loss(name, leaves):
    fn = getattr(losses, name)
    if name == "l2_regularization":
        return fn(leaves, 0.3)
    if name in ("l2_on_batch", "fused_l2_on_batch"):
        return fn(leaves, 0.3, 4)
    return fn(*leaves)


def inputs(makers, dtype, seed=0):
    rng = np.random.default_rng(seed)
    return [np.asarray(make(rng), dtype=dtype) for make in makers]


def weighted(out):
    """Reduce ``out`` to a scalar with fixed weights (identity on scalars)."""
    if out.size == 1:
        return out.sum()
    weights = np.random.default_rng(11).normal(size=out.shape).astype(out.dtype)
    return (out * Tensor(weights)).sum()


def test_every_tensor_op_has_a_case():
    helpers = {"__init__", "__len__", "__repr__", "numpy", "item", "detach", "astype",
               "zero_grad", "backward"}
    ops = {
        name for name, attr in vars(Tensor).items()
        if callable(attr) and name not in helpers
        and (name.startswith("__") or not name.startswith("_"))
    }
    covered = {case.split("[")[0] for case in PRIMITIVES}
    assert ops | {"concat", "stack_sum"} <= covered, sorted(ops - covered)


def test_every_loss_has_a_case():
    defined = {
        name for name, fn in inspect.getmembers(losses, inspect.isfunction)
        if fn.__module__ == losses.__name__ and not name.startswith("_")
    }
    assert defined == set(LOSSES)


def recorded_ops(out):
    """The registry entries a tape from ``out`` records."""
    ops, stack = set(), [out._record]
    while stack:
        record = stack.pop()
        ops.add(record.op)
        stack.extend(slot for slot in record.inputs if slot is not None and not isinstance(slot, Tensor))
    return ops


def test_every_registry_entry_has_a_case():
    covered = set()
    for fn, makers in PRIMITIVES.values():
        leaves = [Tensor(array, requires_grad=True) for array in inputs(makers, "float64")]
        covered |= recorded_ops(fn(*leaves))
    for name, makers in LOSSES.items():
        leaves = [Tensor(array, requires_grad=True) for array in inputs(makers, "float64")]
        covered |= recorded_ops(call_loss(name, leaves))
    assert set(REGISTRY) <= covered, sorted(set(REGISTRY) - covered)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", sorted(PRIMITIVES))
def test_primitive(check_grads, case, dtype):
    fn, makers = PRIMITIVES[case]
    check_grads(lambda *leaves: weighted(fn(*leaves)), *inputs(makers, dtype))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(LOSSES))
def test_loss(check_grads, name, dtype):
    check_grads(lambda *leaves: call_loss(name, leaves), *inputs(LOSSES[name], dtype))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("fused", sorted(FUSED))
def test_fused_kernel_beside_its_reference(check_grads, fused, dtype):
    composed = FUSED[fused]
    arrays = inputs(LOSSES[fused], dtype)
    value_fused = call_loss(fused, [Tensor(a) for a in arrays]).item()
    value_composed = call_loss(composed, [Tensor(a) for a in arrays]).item()
    grads_fused = check_grads(lambda *leaves: call_loss(fused, leaves), *arrays)
    grads_composed = check_grads(lambda *leaves: call_loss(composed, leaves), *arrays)
    rtol = 1e-5 if dtype == "float32" else 1e-12
    np.testing.assert_allclose(value_fused, value_composed, rtol=rtol)
    for got, want in zip(grads_fused, grads_composed):
        assert got.dtype == want.dtype == np.dtype(dtype)
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


class TestSparseMatmulMatchesDense:
    """The sparse product and its gradient equal the dense product and gradient.

    Small integer entries keep every product exact, so equality is bitwise
    in both dtypes whatever order the sparse and dense kernels sum in.
    """

    DENSE = np.array([[0.0, 0.0, 4.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, -2.0, 0.0]])
    FEATURES = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    UPSTREAM = np.array([[1.0, -1.0], [2.0, 0.0], [0.0, 3.0], [-2.0, 1.0]])

    @pytest.mark.parametrize("cached", (False, True))
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward_and_gradient(self, dtype, cached):
        matrix = sp.csr_matrix(self.DENSE)
        transpose = matrix.T.tocsr() if cached else None
        sparse_in = Tensor(self.FEATURES.astype(dtype), requires_grad=True)
        dense_in = Tensor(self.FEATURES.astype(dtype), requires_grad=True)
        upstream = Tensor(self.UPSTREAM.astype(dtype))

        sparse_out = sparse_in.sparse_matmul(matrix, transpose=transpose)
        dense_out = Tensor(self.DENSE.astype(dtype)).matmul(dense_in)
        assert sparse_out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(sparse_out.data, dense_out.data)

        (sparse_out * upstream).sum().backward()
        (dense_out * upstream).sum().backward()
        assert sparse_in.grad.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(sparse_in.grad, dense_in.grad)
        np.testing.assert_array_equal(sparse_in.grad, self.DENSE.T @ self.UPSTREAM)
