"""Differential conformance matrix over the in-memory graph views.

Every view must be observationally equivalent: identical global counts
for every invariant, identical per-vertex counts in the caller's vertex
ids, and — for the compact codec — bit-identical structure when
decompressed.  The matrix crosses

- three views: the ``raw`` and ``compact`` storage layouts, and
  ``reorder`` — the graph relabelled hub-first by
  :func:`repro.graphs.ordering.order_by_degree`, on raw storage, so every
  kernel is also pinned label-invariant on the labelling a degree-ordered
  kernel sees (``mmap`` is covered by the out-of-core tests in
  ``test_storage.py``; its patterns are raw arrays on disk),
- all 8 loop invariants through the blocked kernel,
- structurally distinct graph shapes including the degenerate ones.

Self-contained: no shared executors, no network, no tempdir residue.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import engine
from repro.core import count_butterflies
from repro.core.blocked import count_butterflies_blocked
from repro.core.local_counts import vertex_butterfly_counts
from repro.engine.calibration import CalibrationTable
from repro.graphs import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    planted_bicliques,
    power_law_bipartite,
)
from repro.graphs.ordering import degree_order, order_by_degree
from repro.storage import make_storage

DEFAULTS = CalibrationTable()
VIEWS = ("raw", "reorder", "compact")
INVARIANTS = list(range(1, 9))


def _graphs() -> dict[str, BipartiteGraph]:
    return {
        "empty": BipartiteGraph.empty(5, 7),
        "star": BipartiteGraph([(0, j) for j in range(9)], n_left=1, n_right=9),
        "complete": BipartiteGraph.complete(4, 5),
        "er": erdos_renyi_bipartite(22, 28, 0.15, seed=201),
        "powerlaw": power_law_bipartite(35, 45, 220, seed=202),
        "planted": planted_bicliques(
            30, 30, n_cliques=3, clique_left=4, clique_right=4,
            background_edges=40, seed=203,
        ),
    }


GRAPHS = _graphs()


def _view(g: BipartiteGraph, name: str) -> tuple[BipartiteGraph, str]:
    """(graph, layout pin) behind a view name."""
    if name == "reorder":
        return order_by_degree(g, descending=True), "raw"
    return g, name


def _hub_first(g: BipartiteGraph, side: str) -> np.ndarray:
    """``perm[v]`` = id of ``side`` vertex ``v`` in the ``reorder`` view."""
    degrees = g.degrees_left() if side == "left" else g.degrees_right()
    return degree_order(degrees, descending=True)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("invariant", INVARIANTS)
def test_blocked_count_cell(graph_name, view, invariant):
    g = GRAPHS[graph_name]
    truth = count_butterflies(g)
    store = make_storage(*_view(g, view))
    assert count_butterflies_blocked(store, invariant, block_size=7) == truth


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("view", VIEWS)
def test_plan_execute_cell(graph_name, view):
    g = GRAPHS[graph_name]
    graph, layout = _view(g, view)
    p = engine.plan(graph, "count", layout=layout, calibration=DEFAULTS)
    assert engine.execute(p, graph) == count_butterflies(g)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("side", ("left", "right"))
def test_vertex_counts_cell(graph_name, view, side):
    """Per-vertex results match the caller's vertex ids for every view."""
    g = GRAPHS[graph_name]
    truth = vertex_butterfly_counts(g, side)
    graph, layout = _view(g, view)
    p = engine.plan(
        graph, "vertex-counts", side=side, layout=layout, calibration=DEFAULTS
    )
    counts = engine.execute(p, graph)
    if view == "reorder":
        counts = counts[_hub_first(g, side)]
    np.testing.assert_array_equal(counts, truth)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_compact_structure_roundtrip(graph_name):
    """Decompressing the compact views reproduces the raw patterns bitwise."""
    g = GRAPHS[graph_name]
    store = make_storage(g, "compact")
    assert store.csr.to_pattern() == g.csr
    assert store.csc.to_pattern() == g.csc


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_reorder_edge_set_is_a_relabeling(graph_name):
    """The ``reorder`` view is the same edge set under the hub-first perms."""
    g = GRAPHS[graph_name]
    edges = g.edges()
    relabeled = np.column_stack([
        _hub_first(g, "left")[edges[:, 0]],
        _hub_first(g, "right")[edges[:, 1]],
    ])
    order = np.lexsort((relabeled[:, 1], relabeled[:, 0]))
    got = order_by_degree(g, descending=True).edges()
    np.testing.assert_array_equal(got, relabeled[order])
