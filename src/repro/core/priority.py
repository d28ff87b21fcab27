"""Vertex-priority butterfly counting (BFC-VP, the paper's ref [15]).

Wang et al. (arXiv:1812.00283) rank every vertex of *both* sides by
degree and charge each butterfly to its highest-priority vertex u: from u
only wedges (u, x, w) whose centre x and endpoint w both rank below u are
expanded, and Σ_w C(mult(u, w), 2) over those wedges counts every
butterfly exactly once.  (A butterfly's top vertex z is the endpoint of
both wedges of one orientation; their centres and the opposite endpoint
all rank below z, so the butterfly is expanded from z and nowhere else.)
Hubs get the highest ranks and so expand almost nothing, which is why the
filter does far less wedge work than any fixed-side family member
(Shi & Shun, arXiv:1907.08607, frame the same rule as a ranking).

The kernel is vectorised in three steps:

1. **Relabel.**  Both sides map into one joint rank space ``[0, N)``;
   the symmetric adjacency is built with a single sort of the 2·nnz keys
   ``src·N + dst``, so every slice is rank-sorted.
2. **Wedge slices.**  For an incidence ``e = (x → u)`` with ``u`` above
   ``x``, the wedges that start at ``u`` through centre ``x`` end at
   exactly ``nbr[indptr[x] : e]``: ``u``'s own position in ``x``'s
   rank-sorted slice is the cut, so no search is needed.
3. **Reduction.**  Those slices are grouped by owner ``u`` and cut into
   owner-aligned panels of at most :data:`DEFAULT_WEDGE_SHARD_BUDGET`
   wedges, each gathered with :func:`~repro.sparsela.gather_ranges` and
   reduced with :func:`~repro.sparsela.panel_choose2_sum`.

The kernel is side-free: ``G`` and ``G.swap_sides()`` expand the same
wedge multiset up to tie-breaking.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE, INDEX_DTYPE
from repro.core.blocked import work_bounded_panels
from repro.core.parallel import DEFAULT_WEDGE_SHARD_BUDGET
from repro.sparsela import gather_ranges, panel_choose2_sum

__all__ = [
    "count_butterflies_priority",
    "priority_ranks",
    "priority_wedge_bound",
]


def priority_ranks(graph) -> tuple[np.ndarray, np.ndarray]:
    """Joint priority ranks for (left, right) vertices.

    Ranks run in ascending degree order over the union of both sides,
    ties broken by side (left first) then id, so a higher rank means a
    higher priority.  Any strict total order is correct; degree order is
    what makes the filter effective (hubs expand no wedges).
    """
    dl = graph.csr.degrees()
    dr = graph.csc.degrees()
    deg = np.concatenate([dl, dr])
    ids = np.arange(deg.size, dtype=INDEX_DTYPE)
    order = np.lexsort((ids, deg))
    rank = np.empty_like(order)
    rank[order] = ids
    return rank[: graph.n_left], rank[graph.n_left :]


def priority_wedge_bound(graph) -> int:
    """``Σ_{(u,v)∈E} (min(d_u, d_v) − 1)``: an upper bound on VP wedges.

    An incidence ``x → u`` with ``u`` above ``x`` expands at most
    ``d_x − 1`` wedges, and ranking by degree makes ``d_x = min(d_x, d_u)``.
    O(nnz) over the cached CSR/CSC degrees; the planner's work model.
    """
    nnz = int(graph.n_edges)
    csr = graph.csr
    dl = csr.degrees()
    dr = graph.csc.degrees()
    per_edge = dr[csr.entries(0, nnz)]
    np.minimum(per_edge, np.repeat(dl, dl), out=per_edge)
    return int(per_edge.sum(dtype=COUNT_DTYPE)) - nnz


def _owner_slices(graph):
    """Rank-space adjacency plus every wedge slice, grouped by owner.

    Returns ``(nbr, owner, starts, lengths)``: the owner ``u`` of wedge
    slice ``k`` expands endpoints ``nbr[starts[k] : starts[k] +
    lengths[k]]``; slices are sorted by owner, then by centre.
    """
    n_vertices = graph.n_left + graph.n_right
    nnz = int(graph.n_edges)
    csr = graph.csr
    rank_l, rank_r = priority_ranks(graph)
    src = rank_l[csr.expand_major()]
    dst = rank_r[csr.entries(0, nnz)]
    keys = np.concatenate([src * n_vertices + dst, dst * n_vertices + src])
    keys.sort()
    deg = np.empty(n_vertices, dtype=INDEX_DTYPE)
    deg[rank_l] = csr.degrees()
    deg[rank_r] = graph.csc.degrees()
    indptr = np.zeros(n_vertices + 1, dtype=INDEX_DTYPE)
    np.cumsum(deg, out=indptr[1:])
    centre = np.repeat(np.arange(n_vertices, dtype=INDEX_DTYPE), deg)
    nbr = keys - centre * n_vertices
    # incidences x -> u with u above x; u's position in x's slice is the
    # cut, so the slice before it holds exactly the endpoints below u
    pos = np.flatnonzero(nbr > centre)
    pos = pos[pos > indptr[centre[pos]]]
    # group by owner u: one sort of (u, position) composite keys, which
    # keeps centres in order within an owner
    span = np.int64(keys.size)
    grouped = nbr[pos] * span + pos
    grouped.sort()
    owner = grouped // span
    pos = grouped - owner * span
    starts = indptr[centre[pos]]
    return nbr, owner, starts, pos - starts


def count_butterflies_priority(graph) -> int:
    """Exact Ξ_G with vertex-priority wedge retrieval (see module doc)."""
    n_vertices = graph.n_left + graph.n_right
    with obs.span("priority.count") as sp:
        with obs.span("priority.relabel"):
            nbr, owner, starts, lengths = _owner_slices(graph)
            bounds = np.searchsorted(
                owner, np.arange(n_vertices + 1, dtype=INDEX_DTYPE)
            )
            csum = np.zeros(owner.size + 1, dtype=COUNT_DTYPE)
            np.cumsum(lengths, out=csum[1:])
            panels = work_bounded_panels(
                np.diff(csum[bounds]), DEFAULT_WEDGE_SHARD_BUDGET
            )
        scratch = np.zeros(n_vertices, dtype=COUNT_DTYPE)

        def reduce(lo: int, hi: int) -> int:
            a, b = int(bounds[lo]), int(bounds[hi])
            if a == b:
                return 0
            ln = lengths[a:b]
            endpoints = gather_ranges(nbr, starts[a:b], ln)
            owners_local = np.repeat(owner[a:b] - lo, ln)
            return panel_choose2_sum(
                owners_local, endpoints, hi - lo, hi, scratch=scratch
            )

        total = 0
        if obs._enabled:
            # per-panel child spans only on the traced path, as in
            # blocked.count: REPRO_OBS=0 pays nothing per panel
            for lo, hi in panels:
                with obs.span("priority.panel", lo=lo, hi=hi):
                    total += reduce(lo, hi)
        else:
            for lo, hi in panels:
                total += reduce(lo, hi)
        sp.set_attributes(wedges=int(csum[-1]), panels=len(panels))
    return total
