"""What a fitted PUP keeps resident: its parameters and ``Â``, nothing more.

Propagation reads only the row-normalised adjacency ``Â`` (Eq. 5) and the
embedding tables.  Every backward pass multiplies by ``Â.T`` as the CSC view
of ``Â``'s own arrays, and the graph derives its binary adjacency and edge
list only when asked, so neither a transposed copy, nor ``A``, nor the edge
list outlives the model's construction.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import PUP
from repro.data import SyntheticConfig, generate
from repro.nn import Tensor, precision
from repro.train import TrainConfig, train_model

MIB = 2**20
#: what a fitted model may keep beyond its parameters and ``Â``'s arrays
SLACK_BYTES = MIB // 2


@pytest.fixture(scope="module")
def dataset():
    return generate(SyntheticConfig(
        n_users=3000, n_items=2000, n_categories=20, n_price_levels=10,
        interactions_per_user=20, seed=5,
    ))[0]


def fit(dataset, dtype, **hparams):
    with precision(dtype):
        model = PUP(dataset, global_dim=24, category_dim=8, rng=np.random.default_rng(0), **hparams)
        train_model(model, dataset, TrainConfig(epochs=1, batch_size=2048, seed=1))
    return model


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_fitted_model_retains_its_parameters_and_a_hat_only(dataset, dtype):
    tracemalloc.start()
    try:
        model = fit(dataset, dtype)
        gc.collect()
        with_model = tracemalloc.get_traced_memory()[0]
        adjacency = model.global_encoder._adjacency
        allowed = SLACK_BYTES + sum(
            array.nbytes for array in (adjacency.data, adjacency.indices, adjacency.indptr)
        )
        parameters = sum(parameter.data.nbytes for parameter in model.parameters())
        del model, adjacency
        gc.collect()
        retained = with_model - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained - parameters <= allowed, (retained - parameters) / MIB


def test_after_a_fit_the_graph_caches_one_matrix(dataset):
    model = fit(dataset, "float32")
    assert model.global_graph is model.category_graph
    assert len(model.global_graph._normalized) == 1


def test_the_full_table_transpose_shares_memory_with_a_hat(dataset, monkeypatch):
    """A two-layer encoder's first layer multiplies the whole table."""
    with precision("float32"):
        model = PUP(dataset, global_dim=8, category_dim=4, n_layers=2, rng=np.random.default_rng(0))
    encoder = model.global_encoder
    transposes = []
    sparse_matmul = Tensor.sparse_matmul

    def spy(self, matrix, transpose=None):
        transposes.append((matrix, transpose))
        return sparse_matmul(self, matrix, transpose=transpose)

    monkeypatch.setattr(Tensor, "sparse_matmul", spy)
    encoder.propagate()
    assert len(transposes) == 2
    adjacency = encoder._adjacency
    for matrix, transpose in transposes:
        assert matrix is adjacency
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(transpose, name), getattr(adjacency, name)), name
