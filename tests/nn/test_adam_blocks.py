"""Adam updates every element in blocks, through one scratch buffer.

``Adam.step`` runs its 13 in-place ufunc passes over one block of
``ADAM_BLOCK`` elements of a flattened parameter at a time.  The oracle is
the whole-table update, written out below as ``whole_table_step``: the same
passes over whole arrays with a full-size scratch.  Each element's
arithmetic is the same either way, so the differential asserts byte-equal
parameters after every step, for both dtypes, sizes that are not a
multiple of the block, and several steps with some gradients missing.

The optimizer holds two moment arrays per parameter and one block-sized
scratch for all of them: ``tracemalloc`` counts its state.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Adam, Parameter
from repro.nn.optim import ADAM_BLOCK

DTYPES = (np.float32, np.float64)


def whole_table_step(data, grad, m, v, step, lr, beta1, beta2, eps):
    """One Adam update over whole arrays, in place."""
    bias1 = 1.0 - beta1**step
    bias2 = 1.0 - beta2**step
    scratch = np.empty_like(data)
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=scratch)
    m += scratch
    v *= beta2
    np.multiply(grad, grad, out=scratch)
    scratch *= 1.0 - beta2
    v += scratch
    np.divide(v, bias2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    np.divide(m, scratch, out=scratch)
    scratch *= lr / bias1
    data -= scratch


@st.composite
def shapes(draw):
    size = draw(st.integers(1, 3 * ADAM_BLOCK + 7))
    if draw(st.booleans()):
        return (size,)
    cols = draw(st.integers(1, 64))
    return (max(1, size // cols), cols)


@settings(max_examples=30, deadline=None)
@given(
    shapes=st.lists(shapes(), min_size=1, max_size=3),
    dtype=st.sampled_from(DTYPES),
    n_steps=st.integers(1, 4),
    lr=st.sampled_from((1e-3, 1e-2, 0.5)),
    seed=st.integers(0, 2**16),
)
def test_blocked_step_is_the_whole_table_update(shapes, dtype, n_steps, lr, seed):
    rng = np.random.default_rng(seed)
    initial = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
    params = [Parameter(array.copy()) for array in initial]
    optimizer = Adam(params, lr=lr)
    oracle = [array.copy() for array in initial]
    moments = [(np.zeros_like(array), np.zeros_like(array)) for array in initial]
    for step in range(1, n_steps + 1):
        for param, data, (m, v) in zip(params, oracle, moments):
            if rng.random() < 0.2:
                param.grad = None  # a parameter the step did not reach
                continue
            param.grad = rng.standard_normal(param.shape).astype(dtype)
            whole_table_step(data, param.grad, m, v, step, lr, 0.9, 0.999, 1e-8)
        optimizer.step()
        for param, data in zip(params, oracle):
            assert param.data.dtype == data.dtype
            assert param.data.tobytes() == data.tobytes()


def test_state_is_two_moments_per_parameter_and_one_block():
    params = [
        Parameter(np.zeros((3000, 56), dtype=np.float32)),
        Parameter(np.zeros(70001, dtype=np.float64)),
        Parameter(np.zeros(7, dtype=np.float32)),
    ]
    moments = 2 * sum(param.data.nbytes for param in params)
    block = ADAM_BLOCK * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        optimizer = Adam(params, lr=1e-2)
        held = tracemalloc.get_traced_memory()[0] - base
        for param in params:
            param.grad = np.ones_like(param.data)
        tracemalloc.reset_peak()
        step_base = tracemalloc.get_traced_memory()[0]
        optimizer.step()
        step_peak = tracemalloc.get_traced_memory()[1] - step_base
    finally:
        tracemalloc.stop()
    # Python-object overhead (lists, views) is a few kilobytes at most.
    assert moments + block <= held <= moments + block + 16 * 1024
    assert step_peak < 16 * 1024, f"a step allocated {step_peak} bytes"


def test_a_non_contiguous_parameter_is_refused():
    param = Parameter(np.zeros((6, 4)))
    optimizer = Adam([param], lr=1e-2)
    param.data = np.zeros((4, 6)).T
    param.grad = np.ones((6, 4))
    with pytest.raises(ValueError, match="contiguous"):
        optimizer.step()
