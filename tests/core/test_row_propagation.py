"""The row-restricted last propagation layer, bit for bit against the full table.

A training step reads only its batch's user, item, category and price rows
of the propagated table, so ``GCNEncoder.propagate(rows)`` multiplies only
``Â[rows]`` in the last layer and draws its dropout mask over ``rows``
alone.  The oracle is written out below as ``full_table``: every node
through every layer, then the read-row draw (``len(rows)`` rows of iid
Bernoulli(keep)/keep multipliers, from the same generator) placed at
``rows`` of a full-table mask that is zero elsewhere, then the gathers.
The differential draws small datasets, both dtypes, 0-2 layers, dropout on
and off and batches with repeated ids, and asserts

* the restricted rows are the oracle's rows, byte for byte, and the
  dropout RNG ends in the same state;
* the embedding gradients are equal (``np.array_equal``: an unread row's
  ``+0.0`` terms are gone, so a zero may change sign);
* one Adam step leaves byte-equal parameters.

The counters at the end pin the saving without timing anything: in one
PUP ``bpr_forward`` the last layer's sparse operand and each dropout mask
have one row per distinct node the batch reads, not one per node of the
graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GCNEncoder, PUP
from repro.data import NegativeSampler, SyntheticConfig, generate
from repro.graph import HeteroGraph
from repro.nn import Adam, Dropout, Tensor, fused_bpr_loss, fused_l2_on_batch, precision

DTYPES = (np.float32, np.float64)


def full_table(encoder: GCNEncoder, rows: np.ndarray) -> Tensor:
    """The oracle: propagate every node, then drop out the rows read."""
    out = encoder.embedding.all()
    for _ in range(encoder.n_layers):
        out = out.sparse_matmul(encoder._adjacency, transpose=encoder._adjacency.T).tanh()
    if encoder.dropout is not None:
        dtype = out.dtype
        keep = 1.0 - encoder.dropout.rate
        uniforms = encoder.dropout.rng.random((len(rows), encoder.dim), dtype=dtype)
        mask = np.zeros(out.shape, dtype=dtype)
        mask[rows] = (uniforms < keep) / dtype.type(keep)
        out = out * Tensor(mask)
    return out


def read_rows(model: PUP, users, *item_batches) -> np.ndarray:
    """The distinct node ids a PUP step reads."""
    space = model.global_graph.space
    ids = [users]
    for items in item_batches:
        ids.append(space.item(items))
        if model.use_price:
            ids.append(space.price(model.item_price_levels[items]))
        if model.use_category:
            ids.append(space.category(model.item_categories[items]))
    return np.unique(np.concatenate(ids))


def oracle_bpr_forward(model: PUP, users, pos_items, neg_items):
    """``PUP.bpr_forward`` over full tables: the gathers read node ids."""
    rows = read_rows(model, users, pos_items, neg_items)
    global_table = full_table(model.global_encoder, rows)
    category_table = full_table(model.category_encoder, rows) if model.two_branch else None
    identity = np.arange(model.global_graph.n_nodes)
    tables = (global_table, category_table, identity)
    pos_score, pos_reg = model._score_from_tables(*tables, users, pos_items)
    neg_score, neg_reg = model._score_from_tables(*tables, users, neg_items)
    return pos_score, neg_score, pos_reg + neg_reg


@st.composite
def small_datasets(draw):
    config = SyntheticConfig(
        n_users=draw(st.integers(2, 12)),
        n_items=draw(st.integers(2, 16)),
        n_categories=draw(st.integers(1, 3)),
        n_price_levels=draw(st.integers(1, 4)),
        interactions_per_user=draw(st.integers(3, 5)),
        seed=draw(st.integers(0, 2**16)),
    )
    return generate(config)[0]


@st.composite
def encoder_cases(draw):
    dataset = draw(small_datasets())
    n_nodes = HeteroGraph(dataset).n_nodes
    ids = draw(st.lists(st.integers(0, n_nodes - 1), min_size=1, max_size=2 * n_nodes))
    repeated = draw(st.integers(0, n_nodes - 1))
    ids = np.array(ids + [repeated] * draw(st.integers(0, 20)), dtype=np.int64)
    return dict(
        dataset=dataset,
        ids=np.random.default_rng(draw(st.integers(0, 2**16))).permutation(ids),
        dtype=draw(st.sampled_from(DTYPES)),
        n_layers=draw(st.sampled_from((0, 1, 2))),
        dropout=draw(st.sampled_from((0.0, 0.1))),
        seed=draw(st.integers(0, 2**16)),
    )


def encoder_pair(dataset, dtype, n_layers, dropout, seed):
    """Two encoders with the same weights and the same dropout stream."""
    graph = HeteroGraph(dataset)
    with precision(dtype):
        return [
            GCNEncoder(
                graph, 5, rng=np.random.default_rng(seed), dropout=dropout, n_layers=n_layers
            )
            for _ in range(2)
        ]


def gather_loss(table: Tensor, ids: np.ndarray, weights: np.ndarray) -> Tensor:
    return (table.gather_rows(ids) * Tensor(weights)).sum()


@settings(max_examples=60, deadline=None)
@given(encoder_cases())
def test_rows_gradients_and_adam_step_match_the_full_table(case):
    row_encoder, full_encoder = encoder_pair(
        case["dataset"], case["dtype"], case["n_layers"], case["dropout"], case["seed"]
    )
    ids = case["ids"]
    rows = np.unique(ids)
    rng = np.random.default_rng(case["seed"])
    weights = rng.standard_normal((len(ids), 5)).astype(case["dtype"])

    restricted = row_encoder.propagate(rows)
    full = full_encoder.propagate() if case["dropout"] == 0.0 else None
    oracle = full_table(full_encoder, rows)
    assert restricted.shape == (len(rows), 5)
    assert restricted.data.tobytes() == oracle.data[rows].tobytes()
    if full is not None:
        # without dropout no stream moves, so ``propagate()`` can run beside it
        assert full.data.tobytes() == oracle.data.tobytes()
    if case["dropout"]:
        row_rng, full_rng = row_encoder.dropout.rng, full_encoder.dropout.rng
        assert row_rng.bit_generator.state == full_rng.bit_generator.state

    gather_loss(restricted, np.searchsorted(rows, ids), weights).backward()
    gather_loss(oracle, ids, weights).backward()
    row_weight, full_weight = row_encoder.embedding.weight, full_encoder.embedding.weight
    assert row_weight.grad.dtype == full_weight.grad.dtype
    assert np.array_equal(row_weight.grad, full_weight.grad)

    for encoder in (row_encoder, full_encoder):
        Adam(encoder.parameters(), lr=1e-2).step()
    assert row_weight.data.tobytes() == full_weight.data.tobytes()


@settings(max_examples=20, deadline=None)
@given(encoder_cases())
def test_restricted_operands_are_the_dense_rows_and_their_transpose(case):
    encoder = encoder_pair(case["dataset"], case["dtype"], 1, 0.0, case["seed"])[0]
    rows = np.unique(case["ids"])
    adjacency, transpose = encoder.restrict(rows)
    dense = encoder._adjacency.toarray()[rows]
    assert np.array_equal(adjacency.toarray(), dense)
    assert np.array_equal(transpose.toarray(), dense.T)
    assert adjacency.dtype == transpose.dtype == np.dtype(case["dtype"])


def test_restricted_transpose_is_a_view_of_the_rows():
    dataset = generate(SyntheticConfig(n_users=8, n_items=12, seed=5))[0]
    encoder = encoder_pair(dataset, np.float32, 1, 0.0, 3)[0]
    adjacency, transpose = encoder.restrict(np.array([0, 3, 4, 9]))
    assert np.shares_memory(transpose.data, adjacency.data)
    assert np.shares_memory(transpose.indices, adjacency.indices)


@st.composite
def pup_cases(draw):
    dataset = draw(small_datasets())
    size = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    batch = tuple(
        rng.integers(0, n, size=size) for n in (dataset.n_users, dataset.n_items, dataset.n_items)
    )
    return dict(
        dataset=dataset,
        batch=batch,
        dtype=draw(st.sampled_from(DTYPES)),
        n_layers=draw(st.sampled_from((0, 1, 2))),
        dropout=draw(st.sampled_from((0.0, 0.1))),
        use_price=draw(st.booleans()),
        use_category=draw(st.booleans()),
    )


def bpr_loss(forward, batch):
    pos_scores, neg_scores, reg = forward(*batch)
    return fused_bpr_loss(pos_scores, neg_scores) + fused_l2_on_batch(reg, 1e-4, len(batch[0]))


@settings(max_examples=40, deadline=None)
@given(pup_cases())
def test_pup_step_matches_the_full_table_step(case):
    models = []
    for _ in range(2):
        with precision(case["dtype"]):
            models.append(
                PUP(
                    case["dataset"], global_dim=6, category_dim=3, dropout=case["dropout"],
                    n_layers=case["n_layers"], rng=np.random.default_rng(7),
                    use_price=case["use_price"], use_category=case["use_category"],
                )
            )
    model, oracle = models
    loss = bpr_loss(model.bpr_forward, case["batch"])
    oracle_loss = bpr_loss(lambda *batch: oracle_bpr_forward(oracle, *batch), case["batch"])
    assert loss.data.tobytes() == oracle_loss.data.tobytes()

    loss.backward()
    oracle_loss.backward()
    params, oracle_params = dict(model.named_parameters()), dict(oracle.named_parameters())
    for name, param in params.items():
        assert np.array_equal(param.grad, oracle_params[name].grad), name

    Adam(model.parameters(), lr=1e-2).step()
    Adam(oracle.parameters(), lr=1e-2).step()
    for name, param in params.items():
        assert param.data.tobytes() == oracle_params[name].data.tobytes(), name


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n_layers", (1, 2))
@pytest.mark.parametrize("dropout", (0.0, 0.3))
def test_row_path_gradient_matches_a_central_difference(check_grads, dtype, n_layers, dropout):
    dataset = generate(SyntheticConfig(n_users=8, n_items=12, n_categories=3, n_price_levels=3,
                                       interactions_per_user=4, seed=5))[0]
    encoder = encoder_pair(dataset, dtype, n_layers, dropout, 3)[0]
    rng = np.random.default_rng(4)
    ids = rng.integers(0, encoder.graph.n_nodes, size=15)
    rows = np.unique(ids)
    weights = rng.standard_normal((len(ids), 5)).astype(dtype)

    def loss(weight):
        if encoder.dropout is not None:
            # the same read-row mask at every evaluation of the difference
            encoder.dropout.rng = np.random.default_rng(9)
        return gather_loss(encoder.propagate(rows), np.searchsorted(rows, ids), weights)

    grads = check_grads(loss, encoder.embedding.weight)
    assert np.abs(grads[0]).sum() > 0


def batch_and_reads(n_layers):
    dataset = generate(SyntheticConfig(n_users=300, n_items=400, seed=2))[0]
    model = PUP(dataset, global_dim=8, category_dim=4, n_layers=n_layers,
                rng=np.random.default_rng(0))
    batch = next(NegativeSampler(dataset, np.random.default_rng(1)).epoch_batches(64))
    read = read_rows(model, *batch)
    assert len(read) < model.global_graph.n_nodes
    return model, batch, read


@pytest.mark.parametrize("n_layers", (1, 2))
def test_last_layer_multiplies_only_the_rows_the_batch_reads(monkeypatch, n_layers):
    model, (users, pos_items, neg_items), read = batch_and_reads(n_layers)
    n_nodes = model.global_graph.n_nodes

    shapes, original = [], Tensor.sparse_matmul

    def counting(tensor, matrix, transpose=None):
        shapes.append(matrix.shape)
        return original(tensor, matrix, transpose=transpose)

    monkeypatch.setattr(Tensor, "sparse_matmul", counting)
    model.bpr_forward(users, pos_items, neg_items)
    per_encoder = [(n_nodes, n_nodes)] * (n_layers - 1) + [(len(read), n_nodes)]
    assert shapes == per_encoder * 2


@pytest.mark.parametrize("n_layers", (0, 1, 2))
def test_dropout_draws_one_row_per_node_the_batch_reads(monkeypatch, n_layers):
    model, batch, read = batch_and_reads(n_layers)
    model.train()
    shapes, original = [], Dropout.mask

    def counting(layer, shape, dtype):
        shapes.append(shape)
        return original(layer, shape, dtype)

    monkeypatch.setattr(Dropout, "mask", counting)
    model.bpr_forward(*batch)
    assert shapes == [(len(read), 8), (len(read), 4)]
