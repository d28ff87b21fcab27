"""Tests for one-mode projection, bucket peeling, and counting on
degree-ordered relabellings."""

import numpy as np
import pytest

from repro import engine
from repro.core import count_butterflies, tip_numbers, tip_numbers_bucket
from repro.graphs import (
    BipartiteGraph,
    count_from_projection,
    is_butterfly_free,
    order_side_by_degree,
    planted_bicliques,
    power_law_bipartite,
    project,
)
from tests.conftest import TINY_EXPECTED, tiny_named_graphs


# -------------------------------------------------------------- projection
def test_projection_weights_are_common_neighbours():
    g = tiny_named_graphs()["k23"]
    proj = project(g, "left")
    assert proj == {(0, 1): 3}


def test_projection_min_weight_filter(corpus):
    name, g = corpus[0]
    all_pairs = project(g, "left", min_weight=1)
    heavy = project(g, "left", min_weight=2)
    assert set(heavy) <= set(all_pairs)
    assert all(w >= 2 for w in heavy.values())


def test_projection_min_weight_validation():
    g = tiny_named_graphs()["k23"]
    with pytest.raises(ValueError, match="min_weight"):
        project(g, "left", min_weight=0)


def test_count_from_projection_both_sides(corpus):
    for name, g in corpus:
        expected = count_butterflies(g)
        assert count_from_projection(g, "left") == expected, name
        assert count_from_projection(g, "right") == expected, name


def test_count_from_projection_tiny(tiny_graphs):
    for name, g in tiny_graphs.items():
        assert count_from_projection(g) == TINY_EXPECTED[name], name


def test_is_butterfly_free(tiny_graphs):
    for name, g in tiny_graphs.items():
        assert is_butterfly_free(g) == (TINY_EXPECTED[name] == 0), name


def test_is_butterfly_free_on_corpus(corpus):
    for name, g in corpus:
        assert is_butterfly_free(g) == (count_butterflies(g) == 0), name


# ---------------------------------------------------------- bucket peeling
def test_bucket_tip_numbers_match_heap(corpus):
    for name, g in corpus:
        assert np.array_equal(
            tip_numbers_bucket(g, "left"), tip_numbers(g, "left")
        ), name


def test_bucket_tip_numbers_right_side():
    g = planted_bicliques(12, 12, 2, 3, 4, background_edges=10, seed=2)
    assert np.array_equal(
        tip_numbers_bucket(g, "right"), tip_numbers(g, "right")
    )


def test_bucket_tip_numbers_bad_side():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="side"):
        tip_numbers_bucket(g, "diagonal")


def test_bucket_tip_numbers_empty_graph():
    assert tip_numbers_bucket(BipartiteGraph.empty(4, 4)).tolist() == [0] * 4


# ------------------------------------------------------- degree ordering
def test_count_with_degree_ordering(corpus):
    for name, g in corpus[:6]:
        expected = count_butterflies(g)
        for side in ("left", "right"):
            for descending in (False, True):
                relabelled = order_side_by_degree(g, side, descending)
                assert count_butterflies(relabelled) == expected, name


def test_count_ordering_with_explicit_invariant():
    g = power_law_bipartite(30, 40, 180, seed=9)
    expected = count_butterflies(g)
    for inv in (1, 4, 5, 8):
        plan = engine.plan(g, invariant=inv, family_only=True, executor="serial")
        # a degree relabel permutes degrees, so the plan stays valid
        relabelled = order_side_by_degree(g, plan.side)
        assert count_butterflies(relabelled, plan=plan) == expected
