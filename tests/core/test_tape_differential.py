"""The tape's fused ops against the composed chains they replace, in float64.

``pairwise_interaction`` (Eq. 7), ``fused_bpr_loss`` and
``fused_l2_on_batch`` are single registered primitives.  The oracles are
written out below from elementwise ``Tensor`` ops: the pairwise decoder as
``stack_sum`` / ``e*e`` / ``total*total``, BPR as a softplus of the margin,
the L2 term as a sum of squares.  The differential draws

* the ops alone, over 2-4 embeddings with drawn upstream weights;
* a whole PUP ``bpr_forward`` (the full model, "w/ c" and "w/ p"), with
  repeated users and items and items that share price and category nodes,
  dropout on or off,

and asserts that the loss and every parameter gradient agree within 1e-10
relative.  The pairwise VJP rounds as the composed chain does, so the
decoder alone, and a PUP step that differs from the registered one only
in its decoder, agree bit for bit.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pup as pup_module
from repro.core import pairwise_interaction, pup_full, pup_with_category, pup_with_price
from repro.data import SyntheticConfig, generate
from repro.nn import Tensor, fused_bpr_loss, fused_l2_on_batch, precision, stack_sum

RTOL = 1e-10

VARIANTS = {"full": pup_full, "w/ c": pup_with_category, "w/ p": pup_with_price}


def composed_pairwise(embeddings):
    total = stack_sum(embeddings)
    square_of_sum = (total * total).sum(axis=1)
    sum_of_squares = stack_sum([e * e for e in embeddings]).sum(axis=1)
    return (square_of_sum - sum_of_squares) * 0.5


def composed_bpr(pos_scores, neg_scores):
    return (neg_scores - pos_scores).softplus().mean()


def composed_l2(embeddings, weight, batch_size):
    total = (embeddings[0] * embeddings[0]).sum()
    for emb in embeddings[1:]:
        total = total + (emb * emb).sum()
    return total * (weight / batch_size)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * max(np.abs(want).max(), 1e-300))


def leaves_of(arrays):
    return [Tensor(array.copy(), requires_grad=True) for array in arrays]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_features=st.integers(2, 4),
    batch=st.integers(1, 12),
    dim=st.integers(1, 6),
)
def test_pairwise_op_matches_the_composed_chain_bit_for_bit(seed, n_features, batch, dim):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((batch, dim)) for _ in range(n_features)]
    weights = Tensor(rng.standard_normal(batch))
    fused, composed = leaves_of(arrays), leaves_of(arrays)
    out_fused = pairwise_interaction(fused)
    out_composed = composed_pairwise(composed)
    assert out_fused.data.tobytes() == out_composed.data.tobytes()
    (out_fused * weights).sum().backward()
    (out_composed * weights).sum().backward()
    for got, want in zip(fused, composed):
        assert got.grad.tobytes() == want.grad.tobytes()
        # g·(S − e_f), the VJP's closed form
        expected = weights.data[:, None] * (np.add.reduce(arrays) - got.data)
        assert_close(got.grad, expected)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 40),
    shapes=st.lists(st.sampled_from([(3,), (5, 2), (4, 3), ()]), min_size=1, max_size=4),
    weight=st.floats(1e-5, 1.0),
)
def test_fused_losses_match_their_composed_chains(seed, batch, shapes, weight):
    rng = np.random.default_rng(seed)
    scores = [rng.standard_normal(batch) * 4.0 for _ in range(2)]
    fused, composed = leaves_of(scores), leaves_of(scores)
    loss_fused, loss_composed = fused_bpr_loss(*fused), composed_bpr(*composed)
    assert_close(loss_fused.data, loss_composed.data)
    loss_fused.backward()
    loss_composed.backward()
    for got, want in zip(fused, composed):
        assert_close(got.grad, want.grad)

    slices = [rng.standard_normal(shape) for shape in shapes]
    fused, composed = leaves_of(slices), leaves_of(slices)
    loss_fused = fused_l2_on_batch(fused, weight, batch)
    loss_composed = composed_l2(composed, weight, batch)
    assert_close(loss_fused.data, loss_composed.data)
    loss_fused.backward()
    loss_composed.backward()
    for got, want in zip(fused, composed):
        assert_close(got.grad, want.grad)


@st.composite
def pup_steps(draw):
    config = SyntheticConfig(
        n_users=draw(st.integers(3, 12)),
        n_items=draw(st.integers(3, 15)),
        n_categories=draw(st.integers(1, 3)),
        n_price_levels=draw(st.integers(1, 3)),
        interactions_per_user=3,
        seed=draw(st.integers(0, 1000)),
    )
    dataset, _ = generate(config)
    batch = draw(st.integers(1, 24))
    ids = st.lists(st.integers(0, 10**6), min_size=batch, max_size=batch)
    users = np.array(draw(ids)) % dataset.n_users
    pos_items, neg_items = (np.array(draw(ids)) % dataset.n_items for _ in range(2))
    variant = draw(st.sampled_from(sorted(VARIANTS)))
    dropout = draw(st.sampled_from((0.0, 0.3)))
    return dataset, variant, dropout, (users, pos_items, neg_items)


def pup_step(dataset, variant, dropout, batch, decoder, ranking, penalty):
    """The loss and parameter gradients of one step of a fresh, seeded model."""
    with precision("float64"):
        model = VARIANTS[variant](
            dataset, global_dim=5, category_dim=3, dropout=dropout, rng=np.random.default_rng(7)
        )
    model.train()
    with mock.patch.object(pup_module, "pairwise_interaction", decoder):
        pos, neg, reg = model.bpr_forward(*batch)
    loss = ranking(pos, neg) + penalty(reg, 0.05, len(batch[0]))
    loss.backward()
    return float(loss.item()), [param.grad for param in model.parameters()]


@settings(max_examples=40, deadline=None)
@given(pup_steps())
def test_a_pup_step_matches_the_composed_chain(case):
    dataset, variant, dropout, batch = case
    loss, grads = pup_step(
        dataset, variant, dropout, batch, pairwise_interaction, fused_bpr_loss, fused_l2_on_batch
    )
    same_losses = pup_step(
        dataset, variant, dropout, batch, composed_pairwise, fused_bpr_loss, fused_l2_on_batch
    )
    composed = pup_step(dataset, variant, dropout, batch, composed_pairwise, composed_bpr, composed_l2)

    assert loss == same_losses[0]
    for got, want in zip(grads, same_losses[1]):
        assert got.tobytes() == want.tobytes()
    assert_close(loss, composed[0])
    for got, want in zip(grads, composed[1]):
        assert_close(got, want)
