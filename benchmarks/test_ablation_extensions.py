"""Ablation E — the extension features against their reference forms.

Times the optional/extension implementations DESIGN.md lists beyond the
paper's core:

- **degree ordering** (the paper's Section VI future work): the family
  with natural vs degree-increasing vs degree-decreasing traversal order;
- **peeling discipline**: heap vs bucket tip decomposition (same output,
  different scheduling);
- **dynamic maintenance**: a batch of edge updates via the incremental
  counter vs recounting after every update.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_cell
from repro import engine
from repro.bench import Sweep, TimedResult
from repro.core import (
    DynamicButterflyCounter,
    count_butterflies,
    tip_numbers,
    tip_numbers_bucket,
)
from repro.graphs import (
    load_dataset,
    order_side_by_degree,
    planted_bicliques,
    power_law_bipartite,
)

SWEEP = Sweep(title="ablE: ordering effect on recordlabels stand-in, seconds")


# ----------------------------------------------------------- ordering
@pytest.mark.parametrize("ordering", ["natural", "degree", "degree-desc"])
def test_ordering_cell(benchmark, ordering):
    g = load_dataset("recordlabels")
    # the planner's family member, swept over its pivot side relabelled
    # in degree order (the relabel is untimed: degrees are permuted, so
    # the member stays the planner's choice)
    family = engine.plan(g, "count", family_only=True, executor="serial")
    if ordering != "natural":
        g = order_side_by_degree(
            g, family.side, descending=(ordering == "degree-desc")
        )
    value = run_cell(
        benchmark,
        lambda: engine.execute(family, g),
        experiment="ablE",
        ordering=ordering,
    )
    stats = benchmark.stats.stats if benchmark.stats else None
    SWEEP.record("recordlabels", ordering, TimedResult(
        label=ordering, seconds=stats.min if stats else 0.0, value=value
    ))


def test_ordering_agrees(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(SWEEP.cells) == 3, "ordering cells must run first"
    print("\n" + SWEEP.render())
    assert SWEEP.values_agree()


# -------------------------------------------------------- peel discipline
@pytest.fixture(scope="module")
def peel_graph():
    return planted_bicliques(250, 250, 5, 5, 6, background_edges=1200, seed=31)


def test_tip_numbers_heap(benchmark, peel_graph):
    run_cell(benchmark, lambda: tip_numbers(peel_graph), experiment="ablE",
             discipline="heap")


def test_tip_numbers_bucket(benchmark, peel_graph):
    got = run_cell(
        benchmark, lambda: tip_numbers_bucket(peel_graph), experiment="ablE",
        discipline="bucket",
    )
    assert np.array_equal(got, tip_numbers(peel_graph))


# ---------------------------------------------------------- dynamic
def test_dynamic_updates_vs_recount(benchmark):
    """100 interleaved updates maintained incrementally must be much
    cheaper than 100 full recounts."""
    g = power_law_bipartite(1500, 2000, 12000, seed=41)
    updates = [tuple(map(int, e)) for e in g.edges()[:100]]

    def run_dynamic():
        dc = DynamicButterflyCounter(g)
        for u, v in updates:
            dc.remove_edge(u, v)
        for u, v in updates:
            dc.add_edge(u, v)
        return dc.count

    value = run_cell(benchmark, run_dynamic, experiment="ablE",
                     variant="dynamic-200-updates")
    assert value == count_butterflies(g)


def test_dynamic_single_update_cost(benchmark):
    """One update should cost microseconds — the amortised argument."""
    g = power_law_bipartite(1500, 2000, 12000, seed=41)
    dc = DynamicButterflyCounter(g)
    u, v = map(int, g.edges()[0])

    def one_update():
        dc.remove_edge(u, v)
        dc.add_edge(u, v)
        return dc.count

    value = benchmark.pedantic(one_update, rounds=5, iterations=20)
    assert value == count_butterflies(g)
