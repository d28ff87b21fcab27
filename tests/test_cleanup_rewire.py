"""Tests for component additivity, count-preserving reductions, and
degree-preserving rewiring."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.core import count_butterflies
from repro.graphs import (
    BipartiteGraph,
    drop_isolated,
    gnm_bipartite,
    planted_bicliques,
    power_law_bipartite,
    two_two_core,
)


# ------------------------------------------------------------- components
def test_butterflies_sum_over_components(corpus):
    """Ξ_G decomposes over components (no butterfly spans two)."""
    for name, g in corpus[:5]:
        # label components on the (m + n) × (m + n) block matrix
        # [[0, A], [Aᵀ, 0]]: left vertices first, then right
        a = sp.csr_matrix(g.biadjacency_dense())
        n, labels = csgraph.connected_components(
            sp.bmat([[None, a], [a.T, None]]), directed=False
        )
        ll, lr = labels[: g.n_left], labels[g.n_left :]
        total = 0
        for c in range(n):
            sub = g.subgraph_from_mask(ll == c, lr == c)
            total += count_butterflies(sub)
        assert total == count_butterflies(g), name


# ------------------------------------------------------------- reductions
def test_two_two_core_preserves_count(corpus):
    for name, g in corpus:
        red = two_two_core(g)
        assert count_butterflies(red.graph) == count_butterflies(g), name


def test_two_two_core_min_degrees():
    g = power_law_bipartite(60, 80, 300, seed=4)
    red = two_two_core(g)
    if red.graph.n_edges:
        assert red.graph.degrees_left().min() >= 2
        assert red.graph.degrees_right().min() >= 2


def test_two_two_core_butterfly_free_graph_empties():
    g = BipartiteGraph([(0, 0), (1, 0), (1, 1), (2, 1)], n_left=3, n_right=2)
    red = two_two_core(g)
    assert red.graph.n_edges == 0


def test_two_two_core_id_maps():
    g = planted_bicliques(10, 10, 1, 3, 3, background_edges=0, seed=0)
    red = two_two_core(g)
    assert red.left_ids.tolist() == [0, 1, 2]
    assert red.lift_left(np.array([0, 2])).tolist() == [0, 2]
    assert red.lift_right(np.array([1])).tolist() == [1]


def test_drop_isolated():
    g = BipartiteGraph([(1, 1), (3, 2)], n_left=5, n_right=4)
    red = drop_isolated(g)
    assert red.graph.shape == (2, 2)
    assert red.left_ids.tolist() == [1, 3]
    assert red.right_ids.tolist() == [1, 2]
    assert count_butterflies(red.graph) == count_butterflies(g)


def test_drop_isolated_no_op():
    g = BipartiteGraph.complete(3, 3)
    red = drop_isolated(g)
    assert red.graph == g


# ------------------------------------------------------------------ rewire
def test_rewire_preserves_degrees_and_edges(corpus):
    from repro.graphs import rewire_edges

    for name, g in corpus[:6]:
        r = rewire_edges(g, seed=1)
        assert r.n_edges == g.n_edges, name
        assert np.array_equal(r.degrees_left(), g.degrees_left()), name
        assert np.array_equal(r.degrees_right(), g.degrees_right()), name


def test_rewire_actually_changes_wiring():
    from repro.graphs import rewire_edges

    g = gnm_bipartite(30, 30, 200, seed=2)
    r = rewire_edges(g, seed=3)
    assert r != g  # with 200 edges and 2000 swaps this is certain


def test_rewire_stays_simple():
    from repro.graphs import rewire_edges

    g = gnm_bipartite(15, 15, 100, seed=4)
    r = rewire_edges(g, n_swaps=500, seed=5)
    # BipartiteGraph dedups, so equality of edge count proves no
    # parallel edge was ever created
    assert r.n_edges == 100


def test_rewire_tiny_graphs_are_noops():
    from repro.graphs import rewire_edges

    g = BipartiteGraph([(0, 0)], n_left=1, n_right=1)
    assert rewire_edges(g, seed=0) == g
    assert rewire_edges(BipartiteGraph.empty(3, 3), seed=0).n_edges == 0


def test_rewire_deterministic():
    from repro.graphs import rewire_edges

    g = gnm_bipartite(20, 20, 120, seed=6)
    assert rewire_edges(g, seed=7) == rewire_edges(g, seed=7)


def test_rewire_complete_graph_fixed_point():
    """K_{m,n} admits no legal swap; the rewire must terminate and return
    the same graph (abort limit exercised)."""
    from repro.graphs import rewire_edges

    g = BipartiteGraph.complete(4, 4)
    assert rewire_edges(g, n_swaps=50, seed=0) == g
