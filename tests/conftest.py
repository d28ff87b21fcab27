"""Shared fixtures and graph corpora for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    gnm_bipartite,
    planted_bicliques,
    power_law_bipartite,
)


def tiny_named_graphs() -> dict[str, BipartiteGraph]:
    """Hand-built graphs with known butterfly structure.

    Used with brute-force enumeration so every expected value is verifiable
    by hand.
    """
    return {
        "empty": BipartiteGraph.empty(4, 5),
        "single_edge": BipartiteGraph([(0, 0)], n_left=2, n_right=2),
        "one_butterfly": BipartiteGraph(
            [(0, 0), (0, 1), (1, 0), (1, 1)], n_left=2, n_right=2
        ),
        "path": BipartiteGraph([(0, 0), (1, 0), (1, 1), (2, 1)], n_left=3, n_right=2),
        "k23": BipartiteGraph.complete(2, 3),
        "k33": BipartiteGraph.complete(3, 3),
        "k44": BipartiteGraph.complete(4, 4),
        "star_left": BipartiteGraph(
            [(0, j) for j in range(5)], n_left=1, n_right=5
        ),
        "star_right": BipartiteGraph(
            [(i, 0) for i in range(5)], n_left=5, n_right=1
        ),
        "two_butterflies_shared_edge": BipartiteGraph(
            # K_{2,3} minus nothing has C(2,2)*C(3,2)=3 butterflies; this is
            # a 3-vertex fan sharing the edge (0,0)
            [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2)],
            n_left=2,
            n_right=3,
        ),
        "disconnected_butterflies": BipartiteGraph(
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)],
            n_left=4,
            n_right=4,
        ),
        "isolated_vertices": BipartiteGraph(
            [(1, 1), (1, 3), (3, 1), (3, 3)], n_left=6, n_right=6
        ),
    }


#: Expected butterfly counts for the tiny graphs (hand-derived).
TINY_EXPECTED = {
    "empty": 0,
    "single_edge": 0,
    "one_butterfly": 1,
    "path": 0,
    "k23": 3,  # C(2,2)·C(3,2) = 1·3
    "k33": 9,  # C(3,2)² = 9
    "k44": 36,  # C(4,2)² = 36
    "star_left": 0,
    "star_right": 0,
    "two_butterflies_shared_edge": 3,
    "disconnected_butterflies": 2,
    "isolated_vertices": 1,
}


def random_graph_corpus() -> list[tuple[str, BipartiteGraph]]:
    """A spread of random graphs small enough for the dense oracle."""
    out = [
        ("er_sparse", erdos_renyi_bipartite(25, 40, 0.05, seed=1)),
        ("er_dense", erdos_renyi_bipartite(20, 15, 0.5, seed=2)),
        ("er_very_dense", erdos_renyi_bipartite(10, 12, 0.9, seed=3)),
        ("gnm_small", gnm_bipartite(30, 20, 100, seed=4)),
        ("gnm_wide", gnm_bipartite(8, 60, 120, seed=5)),
        ("gnm_tall", gnm_bipartite(60, 8, 120, seed=6)),
        ("powerlaw", power_law_bipartite(40, 50, 200, seed=7)),
        ("planted", planted_bicliques(30, 30, 3, 4, 4, background_edges=40, seed=8)),
        ("edgeless", BipartiteGraph.empty(10, 10)),
        ("complete", BipartiteGraph.complete(6, 7)),
    ]
    return out


@pytest.fixture(scope="session")
def tiny_graphs():
    return tiny_named_graphs()


@pytest.fixture(scope="session")
def corpus():
    return random_graph_corpus()


@pytest.fixture(scope="session")
def medium_graph():
    """A graph big enough to exercise the vectorised paths meaningfully."""
    return power_law_bipartite(400, 600, 3000, seed=42)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="module", autouse=True)
def _retire_default_executors():
    """Leave no warm default executor behind a test module: later modules
    count pool starts and publications from a cold start."""
    yield
    from repro.parallel import shutdown_default_executors

    shutdown_default_executors()
