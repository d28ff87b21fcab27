"""The vertex-priority kernel: exactness, its work bound, panels and spans.

``count_butterflies_priority`` is the production serial count path, so it
is held to the same oracles as the family: the dense B-form specification
and the blocked panel kernel, on random graphs and on degree-tied ones
(regular and complete graphs, where every rank comes from the tie-break).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    butterflies_spec_bform,
    count_butterflies_blocked,
    count_butterflies_priority,
    priority_wedge_bound,
)
from repro.core import priority as priority_module
from repro.graphs import BipartiteGraph, power_law_bipartite

SETTINGS = dict(max_examples=40, deadline=None)


@st.composite
def random_graphs(draw, max_side=12):
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    if m == 0 or n == 0:
        return BipartiteGraph.empty(m, n)
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return BipartiteGraph.from_biadjacency((rng.random((m, n)) < density).astype(int))


@st.composite
def tied_graphs(draw):
    """Graphs whose degrees all tie: d-regular circulants and K_{m,n}."""
    if draw(st.booleans()):
        return BipartiteGraph.complete(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, n))
    perm = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).permutation(n)
    left = np.repeat(np.arange(n), d)
    right = perm[(left + np.tile(np.arange(d), n)) % n]
    return BipartiteGraph(np.column_stack([left, right]), n_left=n, n_right=n)


def _agree(g: BipartiteGraph) -> None:
    expected = butterflies_spec_bform(g)
    assert count_butterflies_priority(g) == expected
    assert count_butterflies_priority(g.swap_sides()) == expected
    assert count_butterflies_blocked(g, 2, block_size=3) == expected


@settings(**SETTINGS)
@given(random_graphs())
def test_priority_matches_spec_and_blocked_on_random_graphs(g):
    _agree(g)


@settings(**SETTINGS)
@given(tied_graphs())
def test_priority_matches_spec_and_blocked_on_degree_tied_graphs(g):
    _agree(g)


@settings(**SETTINGS)
@given(random_graphs())
def test_wedge_bound_covers_gathered_wedges(g):
    with obs.capture() as metrics:
        count_butterflies_priority(g)
    assert priority_wedge_bound(g) >= metrics.value("kernels.gather.items")


def test_one_owner_per_panel(monkeypatch):
    g = power_law_bipartite(40, 50, 250, seed=102)
    expected = butterflies_spec_bform(g)
    monkeypatch.setattr(priority_module, "DEFAULT_WEDGE_SHARD_BUDGET", 1)
    with obs.capture():
        assert count_butterflies_priority(g) == expected
        spans = obs.trace_records()
    _, owner, _, _ = priority_module._owner_slices(g)
    owners = np.unique(owner)
    panels = [s["attrs"] for s in spans if s["name"] == "priority.panel"]
    assert len(panels) >= owners.size > 1
    for panel in panels:
        in_panel = (owners >= panel["lo"]) & (owners < panel["hi"])
        assert int(in_panel.sum()) <= 1


def test_spans_split_relabel_from_panels():
    g = power_law_bipartite(40, 50, 250, seed=102)
    with obs.capture() as metrics:
        count_butterflies_priority(g)
        spans = obs.trace_records()
    (root,) = [s for s in spans if s["name"] == "priority.count"]
    children = {s["name"] for s in spans if s["parent_id"] == root["span_id"]}
    assert children == {"priority.relabel", "priority.panel"}
    assert root["attrs"]["wedges"] == metrics.value("kernels.gather.items") > 0
    assert root["attrs"]["panels"] >= 1


def test_disabled_obs_records_nothing():
    g = power_law_bipartite(40, 50, 250, seed=102)
    with obs.capture() as metrics:
        with obs.disabled():
            count_butterflies_priority(g)
        assert obs.trace_records() == []
    assert metrics.value("kernels.gather.items") == 0
