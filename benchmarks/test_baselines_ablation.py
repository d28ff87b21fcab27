"""Ablation D — the family against the external baselines.

Positions the derived family against the algorithms the paper cites:
vertex-priority counting (ref [15]), degree-ordered side counting
(refs [3]/[12] — also the family's named future-work optimisation), the
scipy sparse-product route, and the sampling estimators of ref [10]
(accuracy/time trade-off rather than exactness).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_cell
from repro.baselines import (
    count_butterflies_degree_ordered,
    count_butterflies_scipy,
    count_butterflies_vertex_priority,
    count_butterflies_wang_space_efficient,
    estimate_butterflies_adaptive,
    estimate_butterflies_edge_sampling,
    estimate_butterflies_wedge_sampling,
)
from repro import engine
from repro.bench import Sweep, TimedResult
from repro.core import count_butterflies
from repro.graphs import load_dataset

SWEEP = Sweep(title="ablD: family vs baselines on occupations stand-in, seconds")

EXACT_COUNTERS = {
    "family(auto)": lambda g: engine.execute(
        engine.plan(g, "count", family_only=True, executor="serial"), g
    ),
    "vertex-priority": count_butterflies_vertex_priority,
    "degree-ordered": count_butterflies_degree_ordered,
    "scipy-spgemm": count_butterflies_scipy,
    "wang2014-space": count_butterflies_wang_space_efficient,
}


@pytest.mark.parametrize("counter", sorted(EXACT_COUNTERS))
def test_exact_baseline_cell(benchmark, counter):
    g = load_dataset("occupations")
    value = run_cell(
        benchmark,
        lambda: EXACT_COUNTERS[counter](g),
        experiment="ablD",
        counter=counter,
    )
    stats = benchmark.stats.stats if benchmark.stats else None
    SWEEP.record("occupations", counter, TimedResult(
        label=counter, seconds=stats.min if stats else 0.0, value=value
    ))


@pytest.mark.parametrize("samples", [200, 2000])
def test_edge_sampling_cell(benchmark, samples):
    g = load_dataset("occupations")
    exact = count_butterflies(g)
    est = run_cell(
        benchmark,
        lambda: estimate_butterflies_edge_sampling(g, samples, seed=1),
        experiment="ablD",
        counter=f"edge-sample-{samples}",
    )
    benchmark.extra_info["relative_error"] = est.relative_error(exact)
    # sampled estimates should be in the right ballpark even at 200
    assert est.relative_error(exact) < 1.0


@pytest.mark.parametrize("samples", [200, 2000])
def test_wedge_sampling_cell(benchmark, samples):
    g = load_dataset("occupations")
    exact = count_butterflies(g)
    est = run_cell(
        benchmark,
        lambda: estimate_butterflies_wedge_sampling(g, samples, seed=1),
        experiment="ablD",
        counter=f"wedge-sample-{samples}",
    )
    benchmark.extra_info["relative_error"] = est.relative_error(exact)
    assert est.relative_error(exact) < 1.0


def test_adaptive_estimator_cell(benchmark):
    g = load_dataset("occupations")
    exact = count_butterflies(g)
    est = run_cell(
        benchmark,
        lambda: estimate_butterflies_adaptive(
            g, target_rel_width=0.2, seed=5, batch_size=100
        ),
        experiment="ablD",
        counter="adaptive-wedge",
    )
    benchmark.extra_info["n_samples"] = est.n_samples
    benchmark.extra_info["relative_error"] = est.relative_error(exact)
    assert est.converged


def test_baselines_agree(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(SWEEP.cells) == len(EXACT_COUNTERS), "cell tests must run first"
    print("\n" + SWEEP.render())
    assert SWEEP.values_agree()
