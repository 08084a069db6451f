"""``Tensor.backward`` releases the tape as it walks it.

One PUP training step at yelp x1 (Eq. 5-6 propagation of the rows the
batch reads, then the batch gathers, the pairwise decoder, the fused BPR
loss and the batch L2 term) is measured with ``tracemalloc`` from the end
of the forward pass through ``backward()`` and ``Adam.step()``.  A walk
that keeps every saved array and every interior gradient alive until the
loss is dropped peaks at about twice the forward graph's live bytes; one
that frees each record once its VJP has run stays close to the graph
itself.  The tape keeps only what VJPs read (2.88 MiB in float32, where
the per-op closures kept 7.14), and the decoder's and the L2 term's
contributions wait until an embedding's gradient is read, so the 12
batch gradients are never alive at once: the step peaks at 1.19x (float32)
and 1.15x (float64) of that graph.

The walk also leaves every ``Parameter`` with its ``.grad``, releases every
record of the tape (no saved array, gradient or input edge survives it) and
refuses a second walk; a fit holds no ``.grad`` while a forward pass runs.

A whole float32 step at yelp x6, where a batch of 1 024 reads 29 % of the
9 016 nodes, has an absolute ceiling: the last layer multiplies, drops out
and back-propagates only the rows the batch reads.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import NegativeSampler, load_dataset
from repro.data import SyntheticConfig, generate
from repro.nn import Adam, Tensor, fused_bpr_loss, fused_l2_on_batch, precision
from repro.obs.trace import Tracer
from repro.train import TrainConfig, Trainer

#: peak above the pre-forward base, over the forward graph's live bytes
PEAK_RATIO_CEILING = 1.25

#: traced peak of one float32 yelp x6 step above its pre-forward base, MiB.
#: Propagating every node peaks at 15.3; the row-restricted last layer at
#: 9.2-9.6 with per-op closures, and at 4.7 on the tape.
STEP_PEAK_CEILING_MIB = 7.0


def pup_step_setup(dtype, scale=1):
    dataset, _ = load_dataset("yelp", scale=scale)
    with precision(dtype):
        model = pup_full(dataset, global_dim=56, category_dim=8, rng=np.random.default_rng(0))
    model.train()
    optimizer = Adam(model.parameters(), lr=1e-2)
    sampler = NegativeSampler(dataset, np.random.default_rng(1))
    users, pos_items, neg_items = next(sampler.epoch_batches(1024))
    return model, optimizer, (users, pos_items, neg_items)


def pup_loss(model, users, pos_items, neg_items):
    pos_scores, neg_scores, reg = model.bpr_forward(users, pos_items, neg_items)
    return fused_bpr_loss(pos_scores, neg_scores) + fused_l2_on_batch(reg, 1e-4, len(users))


def reachable(root):
    """Every tape record the loss still holds, through the records' inputs."""
    seen, stack = {id(root._record): root._record}, [root._record]
    while stack:
        record = stack.pop()
        for slot in record.inputs:
            if slot is not None and not isinstance(slot, Tensor) and id(slot) not in seen:
                seen[id(slot)] = slot
                stack.append(slot)
    return list(seen.values())


@pytest.mark.parametrize("dtype", ("float32", "float64"))
def test_step_peak_stays_near_the_forward_graph(dtype):
    model, optimizer, batch = pup_step_setup(dtype)
    optimizer.zero_grad()
    pup_loss(model, *batch).backward()  # warm every lazy buffer once
    optimizer.step()
    optimizer.zero_grad()
    gc.collect()

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = pup_loss(model, *batch)
        graph_bytes = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        optimizer.step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

    assert graph_bytes > 0
    ratio = peak / graph_bytes
    assert ratio <= PEAK_RATIO_CEILING, f"step peak {ratio:.2f}x the forward graph"


def test_float32_step_peak_stays_under_its_ceiling():
    model, optimizer, batch = pup_step_setup("float32", scale=6)
    optimizer.zero_grad()
    pup_loss(model, *batch).backward()  # warm every lazy buffer once
    optimizer.step()
    optimizer.zero_grad()
    gc.collect()

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pup_loss(model, *batch).backward()
        optimizer.step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

    assert peak / 2**20 <= STEP_PEAK_CEILING_MIB, f"step peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("dtype", ("float32", "float64"))
def test_walk_keeps_parameter_grads_and_releases_the_interior(dtype):
    model, optimizer, batch = pup_step_setup(dtype)
    loss = pup_loss(model, *batch)
    tape = reachable(loss)
    assert len(tape) > 12 and any(record.saved for record in tape)
    loss.backward()
    for name, param in model.named_parameters():
        assert param.grad is not None and param.grad.shape == param.shape, name
    assert reachable(loss) == [loss._record]
    assert loss.grad is None
    holding = [record for record in tape if record.saved or record.grad is not None or record.inputs]
    assert not holding, f"{len(holding)} records outlived the walk"


class GradProbe(Tracer):
    """A tracer that counts the parameters holding ``.grad`` whenever a
    ``train.forward`` span opens."""

    def __init__(self, params):
        super().__init__()
        self.params = params
        self.alive = []

    def count(self):
        self.alive.append(sum(param.grad is not None for param in self.params))

    def span(self, name, *args, **kwargs):
        if name == "train.forward":
            self.count()
        return super().span(name, *args, **kwargs)


def test_no_parameter_gradient_is_alive_during_a_forward_pass(monkeypatch):
    dataset, _ = generate(SyntheticConfig(n_users=40, n_items=50, seed=3))
    with precision("float32"):
        model = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(0))
    probe = GradProbe(model.parameters())
    forward = model.bpr_forward

    def counted_forward(*args):
        probe.count()
        return forward(*args)

    monkeypatch.setattr(model, "bpr_forward", counted_forward)
    config = TrainConfig(epochs=2, batch_size=32, seed=1, eval_every=0)
    Trainer(model, dataset, config, tracer=probe).fit()
    assert len(probe.alive) > 8
    assert probe.alive == [0] * len(probe.alive)


def test_second_backward_raises():
    x = Tensor(np.arange(3.0), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 4.0])
    with pytest.raises(RuntimeError):
        loss.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 4.0])


def test_backward_through_a_walked_interior_tensor_raises():
    x = Tensor(np.arange(3.0), requires_grad=True)
    hidden = x.tanh()
    hidden.sum().backward()
    with pytest.raises(RuntimeError):
        (hidden * 2.0).sum().backward()


def test_leaf_root_keeps_its_grad():
    x = Tensor(np.ones(1), requires_grad=True)
    x.backward()
    np.testing.assert_array_equal(x.grad, [1.0])
