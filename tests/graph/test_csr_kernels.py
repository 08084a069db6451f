"""``repro.graph.csr`` against ``scipy.sparse``, byte for byte.

The oracle is scipy itself, imported here: the same kernels on the same
arrays in the same index order must give the same bytes.  The products,
the transpose view and the row slice run on matrices scipy builds (square
or not, with empty rows and summed duplicates); the builders run against
the scipy pipelines they replace, spelled out below, on edge lists with
repeated edges and isolated nodes, in every dtype the models use.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines._graph import bipartite_normalized_adjacency
from repro.baselines.lightgcn import _symmetric_normalized_bipartite
from repro.data import Dataset, InteractionTable, ItemCatalog
from repro.graph import HeteroGraph
from repro.graph.csr import CSC, CSR, as_compressed
from repro.nn import Tensor

DTYPES = (np.float32, np.float64)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_matrix(ours, theirs):
    """Identical arrays: dtype, shape, index order and every bit."""
    return ours.shape == theirs.shape and all(
        same_bytes(getattr(ours, name), getattr(theirs, name))
        for name in ("indptr", "indices", "data")
    )


# --- oracles: the scipy pipelines the NumPy builders replace ----------------
def scipy_binary(n, rows, cols):
    upper = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    matrix = (upper + upper.T).tocsr()
    matrix.data[:] = 1.0
    return matrix


def scipy_row_normalized(n, rows, cols, self_loops=True, dtype=None):
    matrix = scipy_binary(n, rows, cols)
    if self_loops:
        matrix = (matrix + sp.identity(n, format="csr")).tocsr()
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    safe = np.where(row_sums > 0, row_sums, 1.0)
    normalized = (sp.diags(1.0 / safe) @ matrix).tocsr()
    return normalized if dtype is None else normalized.astype(np.dtype(dtype))


def scipy_symmetric(n, rows, cols, dtype=None):
    matrix = scipy_binary(n, rows, cols)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-12)), 0.0)
    scale = sp.diags(inv_sqrt)
    normalized = (scale @ matrix @ scale).tocsr()
    return normalized if dtype is None else normalized.astype(np.dtype(dtype))


# --- strategies ---------------------------------------------------------------
@st.composite
def scipy_matrices(draw, square=False):
    """A canonical scipy CSR: duplicates summed, some rows empty."""
    m = draw(st.integers(1, 12))
    n = m if square else draw(st.integers(1, 12))
    entries = draw(st.integers(0, 2 * m * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = rng.integers(0, m, entries)
    cols = rng.integers(0, n, entries)
    values = rng.normal(size=entries)
    dtype = draw(st.sampled_from(DTYPES))
    return sp.csr_matrix((values, (rows, cols)), shape=(m, n)).astype(dtype)


@st.composite
def dense_operands(draw, n, dtype):
    """A 1-D vector, an ``(n, 1)`` column, a matrix, or a strided matrix."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(("vector", "column", "matrix", "strided", "fortran")))
    if kind == "vector":
        return rng.normal(size=n).astype(dtype)
    if kind == "column":
        return rng.normal(size=(n, 1)).astype(dtype)
    width = draw(st.integers(1, 6))
    if kind == "strided":
        return rng.normal(size=(n, 2 * width)).astype(dtype)[:, ::2]
    if kind == "fortran":
        return np.asfortranarray(rng.normal(size=(n, width)).astype(dtype))
    return rng.normal(size=(n, width)).astype(dtype)


@st.composite
def datasets(draw):
    """Repeated interactions, users and items with none, unused levels."""
    n_users = draw(st.integers(1, 8))
    n_items = draw(st.integers(1, 8))
    n_categories = draw(st.integers(1, 3))
    n_levels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_train = draw(st.integers(1, 3 * n_users * n_items))
    users = rng.integers(0, draw(st.integers(1, n_users)), n_train)
    items = rng.integers(0, draw(st.integers(1, n_items)), n_train)
    catalog = ItemCatalog(
        rng.uniform(1.0, 9.0, n_items), rng.integers(0, n_categories, n_items),
        rng.integers(0, n_levels, n_items), n_categories, n_levels,
    )
    train = InteractionTable(users, items, np.arange(n_train, dtype=float))
    empty = InteractionTable([], [], [])
    return Dataset("drawn", n_users, n_items, catalog, train, empty, empty)


# --- products, transpose and row slices -----------------------------------------
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_equal_scipys(data):
    matrix = data.draw(scipy_matrices())
    ours = as_compressed(matrix)
    assert isinstance(ours, CSR) and isinstance(ours.T, CSC)
    operand = data.draw(dense_operands(matrix.shape[1], matrix.dtype))
    assert same_bytes(ours @ operand, matrix @ operand)
    back = data.draw(dense_operands(matrix.shape[0], matrix.dtype))
    assert same_bytes(ours.T @ back, matrix.T @ back)
    assert same_bytes(ours.toarray(), matrix.toarray())
    assert same_bytes(ours.T.toarray(), matrix.T.toarray())
    assert same_matrix(ours.T.tocsr(), matrix.T.tocsr())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_slices_equal_scipys(data):
    matrix = data.draw(scipy_matrices())
    m = matrix.shape[0]
    rows = np.array(data.draw(st.lists(st.integers(0, m - 1), max_size=2 * m)), dtype=np.int64)
    order = data.draw(st.sampled_from(("as drawn", "sorted", "distinct")))
    if order == "sorted":
        rows = np.sort(rows)
    elif order == "distinct":
        rows = np.unique(rows)
    ours, theirs = as_compressed(matrix)[rows], matrix[rows]
    assert same_matrix(ours, theirs)
    upstream = data.draw(dense_operands(len(rows), matrix.dtype)) if len(rows) else None
    if upstream is not None:
        assert same_bytes(ours.T @ upstream, theirs.T @ upstream)


def test_the_transpose_and_a_slice_share_or_copy_as_documented():
    matrix = as_compressed(sp.random(6, 5, density=0.5, format="csr", random_state=2))
    view = matrix.T
    assert view.shape == (5, 6)
    assert view.data is matrix.data and view.indices is matrix.indices
    assert view.T.shape == matrix.shape and view.T.indptr is matrix.indptr
    with pytest.raises(IndexError):
        matrix[[6]]
    with pytest.raises(ValueError):
        matrix @ np.ones((4, 2))
    with pytest.raises(TypeError):
        as_compressed(np.eye(3))


# --- builders ---------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(
    datasets(), st.booleans(), st.booleans(), st.booleans(), st.booleans(),
    st.sampled_from((None, np.float32, np.float64)),
)
def test_hetero_graph_equals_the_scipy_build(
    dataset, prices, categories, profiles, self_loops, dtype
):
    user_profiles = np.arange(dataset.n_users) % 2 if profiles else None
    graph = HeteroGraph(
        dataset, include_prices=prices, include_categories=categories,
        user_profiles=user_profiles, n_profiles=2 if profiles else 0,
    )
    rows, cols = graph._edges()
    binary = scipy_binary(graph.n_nodes, rows, cols)
    assert same_matrix(graph.adjacency(), binary)
    assert graph.n_edges == binary.nnz // 2
    assert same_bytes(graph.degrees(), np.asarray(binary.sum(axis=1)).ravel() + 1.0)

    expected = scipy_row_normalized(graph.n_nodes, rows, cols, self_loops, dtype)
    assert same_matrix(graph.normalized_adjacency(self_loops=self_loops, dtype=dtype), expected)
    assert same_matrix(
        graph.normalized_adjacency_transpose(self_loops=self_loops, dtype=dtype),
        expected.T.tocsr(),
    )


@settings(max_examples=80, deadline=None)
@given(datasets(), st.sampled_from((None, np.float32, np.float64)))
def test_bipartite_builders_equal_the_scipy_builds(dataset, dtype):
    n = dataset.n_users + dataset.n_items
    rows, cols = dataset.train.users, dataset.train.items + dataset.n_users
    assert same_matrix(
        bipartite_normalized_adjacency(dataset, dtype=dtype),
        scipy_row_normalized(n, rows, cols, dtype=dtype),
    )
    assert same_matrix(
        _symmetric_normalized_bipartite(dataset, dtype=dtype),
        scipy_symmetric(n, rows, cols, dtype=dtype),
    )


# --- the autograd op on the new type -----------------------------------------------
DENSE = np.array([[0.0, 0.0, 4.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, -2.0, 0.0]])
FEATURES = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
UPSTREAM = np.array([[1.0, -1.0], [2.0, 0.0], [0.0, 3.0], [-2.0, 1.0]])


@pytest.mark.parametrize("view", (False, True))
@pytest.mark.parametrize("dtype", DTYPES)
def test_sparse_matmul_on_a_csr_matches_the_dense_product(dtype, view):
    """The sparse-mm parity check: forward and gradient equal the dense
    product's, with the transpose passed as the CSC view or derived."""
    matrix = as_compressed(sp.csr_matrix(DENSE)).astype(dtype)
    sparse_in = Tensor(FEATURES.astype(dtype), requires_grad=True)
    dense_in = Tensor(FEATURES.astype(dtype), requires_grad=True)
    sparse_out = sparse_in.sparse_matmul(matrix, transpose=matrix.T if view else None)
    dense_out = Tensor(DENSE.astype(dtype)).matmul(dense_in)
    np.testing.assert_array_equal(sparse_out.data, dense_out.data)
    (sparse_out * Tensor(UPSTREAM.astype(dtype))).sum().backward()
    (dense_out * Tensor(UPSTREAM.astype(dtype))).sum().backward()
    assert sparse_in.grad.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(sparse_in.grad, dense_in.grad)


@pytest.mark.parametrize("dtype", DTYPES)
def test_sparse_matmul_on_a_csr_passes_check_grads(dtype, check_grads):
    matrix = as_compressed(sp.random(5, 4, density=0.5, format="csr", random_state=9))
    weights = np.random.default_rng(3).normal(size=(5, 3))
    x = np.random.default_rng(4).normal(size=(4, 3)).astype(dtype)
    check_grads(lambda t: (t.sparse_matmul(matrix, transpose=matrix.T) * Tensor(weights)).sum(), x)
