"""Exhaustive verification on *every* bipartite graph up to 3×3.

There are 2⁹ = 512 distinct 3×3 biadjacency patterns (and 2⁸ = 256 of
shape 2×4/4×2).  Enumerating them all and checking every counter against
brute force leaves no room for edge-case luck in the randomised tests: any
counting bug expressible in ≤ 9 edges is caught here by construction.
"""

from itertools import product

import numpy as np
import pytest

from repro.baselines import (
    count_butterflies_bruteforce,
    count_butterflies_scipy,
    count_butterflies_vertex_priority,
    count_butterflies_wang_space_efficient,
)
from repro.core import (
    butterflies_spec,
    butterflies_spec_adjacency,
    butterflies_spec_bform,
    butterflies_spec_trace,
    butterflies_spec_upper,
    count_butterflies,
    count_butterflies_blocked,
    count_butterflies_unblocked,
    edge_butterfly_support,
    vertex_butterfly_counts,
)
from repro.graphs import BipartiteGraph, count_from_projection
from repro.reference import butterflies_reference


def _all_graphs(m: int, n: int):
    for bits in product((0, 1), repeat=m * n):
        yield BipartiteGraph.from_biadjacency(
            np.array(bits, dtype=np.int64).reshape(m, n)
        )


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2)])
def test_all_counters_on_every_small_graph(shape):
    m, n = shape
    for g in _all_graphs(m, n):
        expected = count_butterflies_bruteforce(g)
        assert butterflies_spec(g) == expected
        # one family member per (side, reference) corner
        for inv in (1, 2, 7, 8):
            assert count_butterflies_unblocked(g, inv) == expected
        assert count_butterflies_unblocked(g, 4, strategy="spmv") == expected
        assert count_butterflies_blocked(g, 5, block_size=2) == expected
        assert count_butterflies_scipy(g) == expected
        assert count_butterflies_vertex_priority(g) == expected
        assert count_butterflies_wang_space_efficient(g) == expected
        assert count_from_projection(g) == expected
        assert butterflies_reference(g, 3) == expected


def test_local_counts_on_every_3x3_graph():
    from repro.baselines import edge_support_bruteforce, vertex_counts_bruteforce

    for g in _all_graphs(3, 3):
        assert vertex_butterfly_counts(g, "left").tolist() == (
            vertex_counts_bruteforce(g, "left")
        )
        expected_support = edge_support_bruteforce(g)
        got = edge_butterfly_support(g)
        for s, e in zip(got, (tuple(map(int, x)) for x in g.edges())):
            assert int(s) == expected_support[e]


#: The four dense closed forms of Section II — eqs. (1), (2), (4), (7).
SPEC_FORMS = (
    butterflies_spec_upper,
    butterflies_spec_trace,
    butterflies_spec_bform,
    butterflies_spec_adjacency,
)


@pytest.mark.parametrize(
    "shape", [(1, 5), (5, 1), (2, 5), (5, 2), (3, 4), (4, 3), (2, 6), (6, 2)]
)
def test_spec_forms_on_every_graph_up_to_12_cells(shape):
    """Exhaustive sweep of the derivation chain on every pattern with
    m·n ≤ 12 cells: the four closed forms (eqs. 1, 2, 4, 7) and the
    production counter all agree with brute force, so every identity in
    the Section II derivation is verified on the complete universe."""
    m, n = shape
    for g in _all_graphs(m, n):
        expected = count_butterflies_bruteforce(g)
        for form in SPEC_FORMS:
            assert form(g) == expected, form.__name__
        assert count_butterflies(g) == expected


def test_spec_forms_on_sampled_graphs_up_to_5x5():
    """Seeded random sampling of the 5×5 universe (2²⁵ patterns is out of
    exhaustive reach): all spec forms, all 8 invariants, and the blocked
    counter agree with brute force on every draw."""
    rng = np.random.default_rng(20250806)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        density = float(rng.random())
        dense = (rng.random((m, n)) < density).astype(np.int64)
        g = BipartiteGraph.from_biadjacency(dense)
        expected = count_butterflies_bruteforce(g)
        for form in SPEC_FORMS:
            assert form(g) == expected, (form.__name__, dense.tolist())
        for inv in range(1, 9):
            assert count_butterflies_unblocked(g, inv) == expected, (
                inv, dense.tolist(),
            )
        assert count_butterflies_blocked(g, 2, block_size=3) == expected


def test_eq4_equals_eq7_term_by_term():
    """Eq. (4) -> eq. (7) is pure substitution (B = AAᵀ, symmetry drops
    the transposes); the two functions must agree *exactly* even on
    degenerate shapes."""
    rng = np.random.default_rng(7)
    shapes = [(1, 1), (1, 4), (4, 1), (5, 5), (2, 3)]
    for m, n in shapes:
        for density in (0.0, 0.3, 0.7, 1.0):
            dense = (rng.random((m, n)) < density).astype(np.int64)
            g = BipartiteGraph.from_biadjacency(dense)
            assert butterflies_spec_bform(g) == butterflies_spec_adjacency(g)


def test_peeling_on_every_3x3_graph():
    """k-tip/k-wing fixpoint invariants on the complete 3×3 universe."""
    from repro.core import k_tip, k_wing

    for g in _all_graphs(3, 3):
        for k in (1, 2):
            tip = k_tip(g, k)
            counts = vertex_butterfly_counts(tip.subgraph, "left")
            assert (counts[tip.kept] >= k).all()
            wing = k_wing(g, k)
            if wing.subgraph.n_edges:
                assert (edge_butterfly_support(wing.subgraph) >= k).all()
