"""Tests for the unified heterogeneous graph and normalized adjacency."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.data import Dataset, InteractionTable, ItemCatalog
from repro.graph import HeteroGraph, NodeSpace


def make_dataset():
    """3 users, 4 items, 2 categories, 2 price levels."""
    catalog = ItemCatalog(
        raw_prices=[1.0, 2.0, 3.0, 4.0],
        categories=[0, 0, 1, 1],
        price_levels=[0, 1, 0, 1],
        n_categories=2,
        n_price_levels=2,
    )
    train = InteractionTable([0, 0, 1, 2], [0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])
    empty = InteractionTable([], [], [])
    return Dataset("g", 3, 4, catalog, train, empty, empty)


class TestNodeSpace:
    def setup_method(self):
        self.space = NodeSpace(3, 4, 2, 2)

    def test_total(self):
        assert self.space.total == 11

    def test_offsets(self):
        assert self.space.item_offset == 3
        assert self.space.category_offset == 7
        assert self.space.price_offset == 9

    def test_encoders(self):
        np.testing.assert_array_equal(self.space.user([0, 2]), [0, 2])
        np.testing.assert_array_equal(self.space.item([0, 3]), [3, 6])
        np.testing.assert_array_equal(self.space.category([0, 1]), [7, 8])
        np.testing.assert_array_equal(self.space.price([0, 1]), [9, 10])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            self.space.user([3])
        with pytest.raises(IndexError):
            self.space.item([-1])
        with pytest.raises(IndexError):
            self.space.price([2])

    def test_node_type(self):
        assert self.space.node_type(0) == "user"
        assert self.space.node_type(3) == "item"
        assert self.space.node_type(7) == "category"
        assert self.space.node_type(10) == "price"
        with pytest.raises(IndexError):
            self.space.node_type(11)


class TestHeteroGraph:
    def test_edge_counts_full(self):
        graph = HeteroGraph(make_dataset())
        # 4 interaction edges + 4 item-category + 4 item-price = 12
        assert graph.n_edges == 12

    def test_adjacency_symmetric_binary(self):
        adjacency = HeteroGraph(make_dataset()).adjacency()
        assert np.array_equal(adjacency.toarray(), adjacency.T.toarray())
        assert set(np.unique(adjacency.data)) == {1.0}

    def test_no_self_loops_in_raw_adjacency(self):
        adjacency = HeteroGraph(make_dataset()).adjacency()
        assert adjacency.toarray().diagonal().sum() == 0

    def test_normalized_rows_sum_to_one(self):
        norm = HeteroGraph(make_dataset()).normalized_adjacency()
        np.testing.assert_allclose(norm.toarray().sum(axis=1), 1.0)

    def test_self_loops_present_in_normalized(self):
        norm = HeteroGraph(make_dataset()).normalized_adjacency()
        assert (norm.toarray().diagonal() > 0).all()

    def test_isolated_node_safe(self):
        # user 2 removed from train: no division-by-zero for isolated users.
        catalog = ItemCatalog([1.0], [0], [0], 1, 1)
        train = InteractionTable([0], [0], [0.0])
        empty = InteractionTable([], [], [])
        ds = Dataset("iso", 3, 1, catalog, train, empty, empty)
        norm = HeteroGraph(ds).normalized_adjacency()
        assert np.isfinite(norm.data).all()
        np.testing.assert_allclose(norm.toarray().sum(axis=1), 1.0)

    def test_without_prices(self):
        graph = HeteroGraph(make_dataset(), include_prices=False)
        # price nodes exist but have no incident edges
        assert graph.n_edges == 8
        adjacency = graph.adjacency()
        price_rows = adjacency[np.arange(9, 11)]
        assert price_rows.nnz == 0

    def test_without_categories(self):
        graph = HeteroGraph(make_dataset(), include_categories=False)
        assert graph.n_edges == 8
        adjacency = graph.adjacency()
        assert adjacency[[7, 8]].nnz == 0

    def test_without_both(self):
        graph = HeteroGraph(make_dataset(), include_prices=False, include_categories=False)
        assert graph.n_edges == 4

    def test_duplicate_interactions_collapse(self):
        catalog = ItemCatalog([1.0], [0], [0], 1, 1)
        train = InteractionTable([0, 0, 0], [0, 0, 0], [0.0, 1.0, 2.0])
        empty = InteractionTable([], [], [])
        ds = Dataset("dup", 1, 1, catalog, train, empty, empty)
        graph = HeteroGraph(ds)
        assert graph.adjacency().toarray().max() == 1.0

    def test_degrees_include_self_loop(self):
        graph = HeteroGraph(make_dataset())
        degrees = graph.degrees()
        # user 0 interacted with 2 items -> degree 3 with self-loop
        assert degrees[0] == 3.0
        # item 0: user 0 + category 0 + price 0 + self = 4
        assert degrees[3] == 4.0

    def test_nodes_edges_and_node_types(self):
        graph = HeteroGraph(make_dataset())
        adjacency = graph.adjacency()
        assert adjacency.shape == (11, 11)
        dense = adjacency.toarray()
        assert dense.diagonal().sum() == 0
        assert np.array_equal(dense, dense.T)
        assert adjacency.nnz == 2 * 12  # 12 undirected edges
        assert graph.space.node_type(0) == "user"
        assert graph.space.node_type(9) == "price"

    def test_price_reachable_from_user_in_two_hops(self):
        adjacency = HeteroGraph(make_dataset()).adjacency()
        # user 0 -> item 0 -> price node 9: the paper's "items as bridge".
        assert adjacency.toarray()[0, 9] == 0
        assert (adjacency @ adjacency.toarray())[0, 9] > 0

    def test_propagation_matches_manual_average(self):
        """Â x must equal the hand-computed neighbor average (Eq. 2)."""
        graph = HeteroGraph(make_dataset())
        norm = graph.normalized_adjacency()
        x = np.arange(graph.n_nodes, dtype=float).reshape(-1, 1)
        out = norm @ x
        # user 0 neighbors: items 0,1 -> global ids 3,4 plus self 0.
        expected_user0 = (x[3] + x[4] + x[0]) / 3.0
        np.testing.assert_allclose(out[0], expected_user0)


def test_import_leaves_networkx_out():
    """The graph is CSR end to end: importing the package loads no
    networkx, which would cost every process ~11 MB of resident memory."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('networkx' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"
