"""k-tip peeling (Section IV-B).

A maximal induced subgraph H of G is a *k-tip* when every vertex of the
peeled side participates in at least k butterflies of H.  The paper's
formulation iterates eqs. (19)–(22): compute the per-vertex butterfly
vector s, mask out vertices with s < k (zeroing their rows of A), and
repeat until no vertex is removed — removals can drop the counts of the
survivors below k, hence the fixpoint loop.

Two implementations are provided:

- :func:`k_tip` — the batch fixpoint exactly as formulated, built on the
  blocked :func:`~repro.core.local_counts.vertex_butterfly_counts_blocked`
  kernel (each round's cost is one panelised per-vertex count).
- :func:`k_tip_lookahead` — the fused single-sweep variant of Fig. 8
  (KTIP_UNB_VAR1): the s vector is produced by a FLAME sweep over the rows
  in which each σ₁ is computed from the rows *below* the pivot (the A₂
  look-ahead reference) plus accumulated contributions from the rows
  already passed — so s is finished exactly when the sweep is, and the
  mask for each vertex is emitted as soon as its entry of s completes.
  Each outer fixpoint round is one such sweep.

Both return the same fixpoint (asserted by the tests); k-tips are computed
for one chosen side, matching the one-sided definition of Sariyüce–Pınar
(the paper's ref [11]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE
from repro.core.local_counts import vertex_butterfly_counts_blocked
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import gather_slices

__all__ = ["TipResult", "k_tip", "k_tip_lookahead"]


@dataclass(frozen=True)
class TipResult:
    """Result of a k-tip peel.

    Attributes
    ----------
    subgraph:
        The k-tip subgraph (same vertex id space; removed vertices keep
        their ids but lose all edges).
    kept:
        Boolean mask over the peeled side: True for vertices in the k-tip.
    rounds:
        Number of fixpoint iterations executed.
    k, side:
        Echo of the query.
    """

    subgraph: BipartiteGraph
    kept: np.ndarray
    rounds: int
    k: int
    side: str

    @property
    def n_kept(self) -> int:
        """Vertices surviving on the peeled side."""
        return int(np.count_nonzero(self.kept))


def _peel_side_sizes(graph: BipartiteGraph, side: str) -> int:
    if side == "left":
        return graph.n_left
    if side == "right":
        return graph.n_right
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _counts_kernel_from_plan(plan, side: str):
    """Build the per-round counts callable a :class:`repro.engine.Plan`
    describes: the warm parallel path when the plan asks for a pool, the
    serial blocked kernel (at the plan's block size) otherwise."""
    if plan.workers > 1 or plan.executor != "serial":
        from repro.core.parallel import vertex_butterfly_counts_parallel

        return lambda g: vertex_butterfly_counts_parallel(
            g, side, n_workers=plan.workers, executor=plan.executor
        )
    block = plan.block_size or 128
    return lambda g: vertex_butterfly_counts_blocked(g, side, block_size=block)


def k_tip(
    graph: BipartiteGraph,
    k: int,
    side: str = "left",
    executor=None,
    *,
    plan=None,
) -> TipResult:
    """Batch k-tip peeling: iterate eqs. (19)–(22) until fixpoint.

    Parameters
    ----------
    graph:
        The bipartite graph.
    k:
        Minimum number of butterflies each surviving vertex of ``side``
        must participate in (within the surviving subgraph).
    side:
        Which vertex set is peeled (``"left"`` = V1, the formulation's
        default, or ``"right"``).
    executor:
        Optional :class:`repro.parallel.ButterflyExecutor`.  When given,
        every fixpoint round computes the per-vertex count vector on the
        executor's *warm* pool via shared-memory graph buffers — the
        multi-round loop pays pool startup zero times instead of once per
        round.  Overrides ``plan``.
    plan:
        Optional :class:`repro.engine.Plan` pinning the per-round counts
        kernel (block size / pool shape).  When *both* ``executor`` and
        ``plan`` are ``None`` the engine plans the rounds itself
        (cost-based choice of block size, and of pool vs serial), which is
        the behaviour every auto entry point gets.

    Returns
    -------
    TipResult
        The maximal subgraph in which every ``side`` vertex lies in ≥ k
        butterflies; empty when no such subgraph exists.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if executor is not None:
        counts_of = lambda g: executor.vertex_counts(g, side)
    else:
        if plan is None:
            from repro import engine

            plan = engine.plan(graph, "tip", side=side, k=k)
        counts_of = _counts_kernel_from_plan(plan, side)
    n_side = _peel_side_sizes(graph, side)
    kept = np.ones(n_side, dtype=bool)
    current = graph
    rounds = 0
    with obs.span("peel.tip", k=k, side=side) as tip_span:
        while True:
            rounds += 1
            with obs.span("peel.tip.round", round=rounds):
                counts = counts_of(current)
            # vertices already peeled have zero rows, hence zero counts;
            # only demand >= k of the still-present vertices
            offenders = kept & (counts < k)
            if obs._enabled:
                obs.inc("peel.tip.rounds")
                obs.inc("peel.tip.peeled", int(offenders.sum()))
            if not offenders.any():
                break
            kept &= ~offenders
            if side == "left":
                current = current.subgraph_from_mask(
                    kept, np.ones(graph.n_right, dtype=bool)
                )
            else:
                current = current.subgraph_from_mask(
                    np.ones(graph.n_left, dtype=bool), kept
                )
            if not kept.any():
                break
        # kept ⊆ {counts >= k} already holds on ``current``: the loop exits
        # after a round on this same graph found no offenders, or with
        # kept all False
        if obs._enabled:
            # policy="sum": kept counts over disjoint vertex shards are
            # additive, so worker-delta merges are order-independent
            obs.gauge("peel.tip.kept", int(kept.sum()), policy="sum")
            tip_span.set_attributes(rounds=rounds, kept=int(kept.sum()))
    return TipResult(subgraph=current, kept=kept, rounds=rounds, k=k, side=side)


def _tip_sweep_lookahead(graph: BipartiteGraph, side: str) -> np.ndarray:
    """One Fig.-8 style look-ahead sweep producing the s vector.

    Walks the peeled side top-to-bottom; at pivot u the wedge counts
    against the suffix rows (the A₂ partition) yield both σ₁'s suffix
    contribution and, scattered back, the partial updates to s₂ — so every
    pair {u, w} is accounted exactly once and s is complete at sweep end.
    """
    if side == "left":
        pivot_major, complementary = graph.csr, graph.csc
    else:
        pivot_major, complementary = graph.csc, graph.csr
    n = pivot_major.major_dim
    s = np.zeros(n, dtype=COUNT_DTYPE)
    for u in range(n):
        endpoints = gather_slices(
            complementary.indptr, complementary.indices, pivot_major.slice(u)
        )
        if endpoints.size == 0:
            continue
        endpoints = endpoints[endpoints > u]  # A2: rows below the pivot
        if endpoints.size == 0:
            continue
        uniq, counts = np.unique(endpoints, return_counts=True)
        contrib = (counts.astype(COUNT_DTYPE) * (counts - 1)) // 2
        pair_total = int(contrib.sum())
        s[u] += pair_total  # σ₁ := suffix wedge pairs + already-accumulated
        s[uniq] += contrib  # partial update of s₂ (the look-ahead write)
    return s


def k_tip_lookahead(graph: BipartiteGraph, k: int, side: str = "left") -> TipResult:
    """k-tip peeling with the Fig. 8 fused look-ahead sweep per round.

    Produces the identical fixpoint to :func:`k_tip`; the difference is
    purely operational — each round computes s in a single suffix-referencing
    sweep that also emits each vertex's mask bit as soon as its s entry is
    final, the "look-ahead" structure the paper derives in Fig. 8.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n_side = _peel_side_sizes(graph, side)
    kept = np.ones(n_side, dtype=bool)
    current = graph
    rounds = 0
    while True:
        rounds += 1
        if obs._enabled:
            obs.inc("peel.tip.lookahead.rounds")
        s = _tip_sweep_lookahead(current, side)
        offenders = kept & (s < k)
        if not offenders.any():
            break
        kept &= ~offenders
        if side == "left":
            current = current.subgraph_from_mask(
                kept, np.ones(graph.n_right, dtype=bool)
            )
        else:
            current = current.subgraph_from_mask(
                np.ones(graph.n_left, dtype=bool), kept
            )
        if not kept.any():
            break
    return TipResult(subgraph=current, kept=kept, rounds=rounds, k=k, side=side)
