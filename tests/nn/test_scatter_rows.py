"""The embedding-gather backward: flattened ``np.add.at`` calls, bit for bit.

``scatter_add_rows(buffer, ids, values)`` must leave ``buffer`` holding
exactly the bytes ``np.add.at(buffer, ids, values)`` would: every element
receives the same values in the same (index) order, however many rows one
``np.add.at`` call takes (``BLOCK_ELEMENTS``).  The differential draws
that block, 1-D, 2-D and 3-D tables in both dtypes, 1-D and 2-D id arrays with
one id planted 300 times (a PUP batch of 1 024 repeats a category or
price-level id 120-306 times), negative ids, buffers
holding ``-0.0`` / ``inf`` / ``nan``, non-contiguous incoming gradients
and F-ordered buffers, which must be written in place.

The counter at the end pins the speed-up without timing anything: a
float32 PUP training step makes no ``np.add.at`` call on a 2-D operand.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pup_full
from repro.data import NegativeSampler, SyntheticConfig, generate
from repro.nn import Adam, Tensor, fused_bpr_loss, fused_l2_on_batch, precision
from repro.nn import tensor
from repro.nn.tensor import scatter_add_rows

TRAILING = ((), (1,), (8,), (56,), (3, 4))


@st.composite
def scatter_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    trailing = draw(st.sampled_from(TRAILING))
    n_rows = draw(st.integers(1, 40))
    shape = (n_rows,) + trailing

    ids = rng.integers(-n_rows, n_rows, size=300 + 4 * draw(st.integers(0, 15)))
    ids[rng.permutation(len(ids))[:300]] = rng.integers(-n_rows, n_rows)
    if draw(st.booleans()):
        ids = ids.reshape(-1, 4)

    fill = draw(st.sampled_from(("zero", "random", "special")))
    buffer = np.zeros(shape, dtype=dtype)
    if fill == "random":
        buffer[...] = rng.standard_normal(shape)
    elif fill == "special":
        buffer[...] = rng.choice(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5]), size=shape)
    if draw(st.booleans()):
        buffer = np.asfortranarray(buffer)

    values_shape = ids.shape + trailing
    values = rng.standard_normal(values_shape).astype(dtype)
    if draw(st.booleans()):
        # the same numbers, read through a stride-2 view
        wide = np.zeros(values_shape[:-1] + (2 * values_shape[-1],), dtype=dtype)
        wide[..., ::2] = values
        values = wide[..., ::2]
    return buffer, ids, values


@settings(max_examples=120, deadline=None)
@given(scatter_cases(), st.sampled_from((1, 7, 64, tensor.BLOCK_ELEMENTS)))
def test_scatter_matches_add_at_byte_for_byte(case, block):
    buffer, ids, values = case
    expected = buffer.copy()
    np.add.at(expected, ids, values)
    default, tensor.BLOCK_ELEMENTS = tensor.BLOCK_ELEMENTS, block
    try:
        scatter_add_rows(buffer, ids, values)
    finally:
        tensor.BLOCK_ELEMENTS = default
    assert buffer.tobytes() == expected.tobytes()


@pytest.mark.parametrize("order", ("C", "F"))
@pytest.mark.parametrize("bad", (5, 17, -6, -40))
def test_out_of_range_id_raises_and_writes_nothing(order, bad):
    buffer = np.zeros((5, 3), order=order)
    with pytest.raises(IndexError):
        scatter_add_rows(buffer, np.array([0, bad, 1]), np.ones((3, 3)))
    assert not buffer.any()


def test_a_buffer_that_is_not_dense_raises_instead_of_copying():
    buffer = np.zeros((6, 8))[:, ::2]
    with pytest.raises(ValueError):
        scatter_add_rows(buffer, np.array([0, 1]), np.ones((2, 4)))


def test_gather_rows_backward_takes_two_dimensional_ids():
    data = np.arange(12.0).reshape(4, 3)
    table = Tensor(data, requires_grad=True)
    ids = np.array([[2, 0], [2, 2]])
    (table.gather_rows(ids) * 2.0).sum().backward()
    expected = np.zeros_like(data)
    np.add.at(expected, ids, np.full((2, 2, 3), 2.0))
    assert table.grad.tobytes() == expected.tobytes()


class _CountingAdd:
    """``np.add`` with ``.at`` recording the number of dims of its operand."""

    def __init__(self, operand_ndims):
        self._operand_ndims = operand_ndims

    def at(self, operand, *args, **kwargs):
        self._operand_ndims.append(np.ndim(operand))
        return np.add.at(operand, *args, **kwargs)

    def __call__(self, *args, **kwargs):
        return np.add(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np.add, name)


class _CountingNumpy:
    def __init__(self, operand_ndims):
        self.add = _CountingAdd(operand_ndims)

    def __getattr__(self, name):
        return getattr(np, name)


def test_a_pup_step_scatters_through_one_dimensional_add_at(monkeypatch):
    dataset, _ = generate(SyntheticConfig(
        n_users=60, n_items=80, n_categories=4, n_price_levels=5,
        interactions_per_user=6, seed=2,
    ))
    with precision("float32"):
        model = pup_full(dataset, global_dim=56, category_dim=8, rng=np.random.default_rng(0))
    model.train()
    optimizer = Adam(model.parameters(), lr=1e-2)
    users, pos_items, neg_items = next(
        NegativeSampler(dataset, np.random.default_rng(1)).epoch_batches(128)
    )

    operand_ndims = []
    shim = _CountingNumpy(operand_ndims)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "np", None) is np:
            monkeypatch.setattr(module, "np", shim)

    pos_scores, neg_scores, reg = model.bpr_forward(users, pos_items, neg_items)
    loss = fused_bpr_loss(pos_scores, neg_scores) + fused_l2_on_batch(reg, 1e-4, len(users))
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()

    # 12 gathers a step: (positive, negative) x (global, category branch)
    # x three feature rows (user, item or category, price level)
    assert operand_ndims == [1] * 12
