"""A gradient slot adopts the array its consumer's VJP just made.

``sparse_matmul``'s ``Âᵀ · G``, ``matmul``'s two products and an
elementwise op's VJP make a fresh array that nothing else holds: the walk
keeps it instead of copying it.  Shared arrays (an ``add``'s gradient goes
to both inputs), views and broadcast views are still copied.

* After ``backward()`` no two leaves' ``.grad`` share memory with each
  other, and none shares memory with any array of the forward pass — a
  tensor's data or an array a tape record saved: over a graph of every op
  that adopts, and over one PUP training step.
* ``tracemalloc`` counts the copy: a backward into a leaf through a sparse
  or dense product holds two ``(n, d)`` tables at its peak (the root's
  gradient and the product), where copying the product made it three.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import pup_full
from repro.data import NegativeSampler, SyntheticConfig, generate
from repro.nn import Parameter, Tensor, fused_bpr_loss, fused_l2_on_batch, precision
from repro.nn.tensor import Record


@pytest.fixture
def forward_arrays(monkeypatch):
    """Every array a ``Tensor`` is built around, or a tape record saves,
    from here on."""
    arrays, tensor_init, record_init = [], Tensor.__init__, Record.__init__

    def recording(self, *args, **kwargs):
        tensor_init(self, *args, **kwargs)
        arrays.append(self.data)

    def saving(self, op, inputs, saved, out):
        record_init(self, op, inputs, saved, out)
        arrays.extend(array for array in saved if isinstance(array, np.ndarray))

    monkeypatch.setattr(Tensor, "__init__", recording)
    monkeypatch.setattr(Record, "__init__", saving)
    return arrays


def assert_grads_own_their_memory(leaves, arrays):
    grads = [leaf.grad for leaf in leaves]
    assert all(grad is not None for grad in grads)
    for index, grad in enumerate(grads):
        for other in grads[index + 1:]:
            assert not np.shares_memory(grad, other)
        for array in arrays:
            assert not np.shares_memory(grad, array)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_leaf_gradients_share_memory_with_nothing(forward_arrays, dtype):
    rng = np.random.default_rng(0)
    adjacency = sp.random(9, 9, density=0.4, format="csr", random_state=1, dtype=dtype)
    embedding = Parameter(rng.standard_normal((9, 4)).astype(dtype))
    weight = Parameter(rng.standard_normal((4, 3)).astype(dtype))
    bias = Parameter(rng.standard_normal(3).astype(dtype))
    vector = Parameter(rng.standard_normal(4).astype(dtype))

    hidden = embedding.sparse_matmul(adjacency).tanh()
    out = (hidden.matmul(weight) + bias).sigmoid()
    loss = out.sum() + (hidden.matmul(vector).relu() * 2.0).sum()
    loss = loss + embedding.gather_rows([1, 1, 4]).exp().sum()
    loss.backward()
    assert_grads_own_their_memory([embedding, weight, bias, vector], forward_arrays)


def test_pup_step_gradients_share_memory_with_nothing(forward_arrays):
    dataset = generate(SyntheticConfig(n_users=30, n_items=40, seed=4))[0]
    with precision("float32"):
        model = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(0))
    model.train()
    users, pos_items, neg_items = next(
        NegativeSampler(dataset, np.random.default_rng(1)).epoch_batches(16)
    )
    pos, neg, reg = model.bpr_forward(users, pos_items, neg_items)
    (fused_bpr_loss(pos, neg) + fused_l2_on_batch(reg, 1e-4, len(users))).backward()
    assert_grads_own_their_memory(model.parameters(), forward_arrays)


def sparse_product(leaf, rng):
    n = leaf.shape[0]
    adjacency = (sp.eye(n, format="csr") + sp.random(n, n, density=1e-3, random_state=2)).astype(
        leaf.dtype
    ).tocsr()
    return leaf.sparse_matmul(adjacency, transpose=adjacency.T.tocsr())


def dense_product(leaf, rng):
    width = leaf.shape[1]
    return leaf.matmul(Tensor(rng.standard_normal((width, width)).astype(leaf.dtype)))


@pytest.mark.parametrize("product", (sparse_product, dense_product))
def test_backward_through_a_product_holds_two_tables(product):
    rng = np.random.default_rng(3)
    leaf = Parameter(rng.standard_normal((4096, 64)).astype(np.float32))
    out = product(leaf, rng)
    seed = np.ones(out.shape, dtype=out.dtype)
    table = seed.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out.backward(seed)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert leaf.grad.shape == leaf.shape
    assert peak < 2.5 * table, f"backward peaked at {peak / table:.2f} tables"
