"""Workload inputs and the independent oracles that check them.

Everything here runs in run.py, outside the timed region, and depends on
numpy and scipy only: the graphs are generated, written and checked without
importing the program under test, so a change to the program can neither
move the workloads nor bend the oracle.

The generators reproduce ``repro.graphs.generators`` draw for draw (same
numpy ``default_rng`` stream, same sampling order), so a workload built
from seed 7 is exactly the graph the ROADMAP quotes; ``test_e2ebench.py``
checks that equivalence against the program's own generators.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Workload",
    "WORKLOADS",
    "DEFAULT_SEED",
    "power_law_edges",
    "gnm_edges",
    "write_konect",
    "butterflies_oracle",
    "tip_oracle",
]

#: The default ``--seed`` of run.py; it maps every workload to the ROADMAP
#: graph (seeds 7, 11 and 17).
DEFAULT_SEED = 7


def _canonical(rows, cols, n_right):
    """Row-major sorted, duplicate-free edge arrays (first copy wins)."""
    key = rows.astype(np.int64) * max(n_right, 1) + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    keep = np.empty(key.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    sel = order[keep]
    return rows[sel].astype(np.int64), cols[sel].astype(np.int64)


def power_law_edges(n_left, n_right, n_edges, seed):
    """Chung-Lu edges with Zipf weights ``(i + 1) ** (-1 / (2.2 - 1))``."""
    rng = np.random.default_rng(seed)
    exponent = -1.0 / (2.2 - 1.0)
    lw = np.arange(1, n_left + 1, dtype=np.float64) ** exponent
    rw = np.arange(1, n_right + 1, dtype=np.float64) ** exponent
    rng.shuffle(lw)
    rng.shuffle(rw)
    lp, rp = lw / lw.sum(), rw / rw.sum()
    rows = np.empty(0, dtype=np.int64)
    cols = np.empty(0, dtype=np.int64)
    for _ in range(64):
        need = n_edges - rows.size
        if need <= 0:
            break
        draw = int(need * 1.3) + 16
        rows = np.concatenate([rows, rng.choice(n_left, size=draw, p=lp)])
        cols = np.concatenate([cols, rng.choice(n_right, size=draw, p=rp)])
        _, first = np.unique(rows * n_right + cols, return_index=True)
        first.sort()
        rows, cols = rows[first], cols[first]
    return _canonical(rows[:n_edges], cols[:n_edges], n_right)


def gnm_edges(n_left, n_right, n_edges, seed):
    """Exactly ``n_edges`` distinct uniform edges (sparse regime only)."""
    total = n_left * n_right
    if not 0 <= n_edges <= total // 2:
        raise ValueError("gnm_edges covers the sparse regime only")
    rng = np.random.default_rng(seed)
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < n_edges:
        need = n_edges - chosen.size
        cand = rng.integers(0, total, size=2 * need + 16)
        chosen = np.unique(np.concatenate([chosen, cand]))
    flat = rng.permutation(chosen)[:n_edges]
    return _canonical(flat // n_right, flat % n_right, n_right)


def write_konect(path, rows, cols, n_left, n_right):
    """Write the KONECT dialect the program's ``load_konect`` reads."""
    body = np.char.add(
        np.char.add((rows + 1).astype(str), " "), (cols + 1).astype(str)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("% bip unweighted\n")
        fh.write(f"% {rows.size} {n_left} {n_right}\n")
        fh.write("\n".join(body.tolist()))
        fh.write("\n")


def _biadjacency(rows, cols, n_left, n_right):
    data = np.ones(rows.size, dtype=np.int64)
    return sp.csr_matrix((data, (rows, cols)), shape=(n_left, n_right))


def butterflies_oracle(rows, cols, n_left, n_right):
    """Xi_G = sum over pairs i < j of C(B_ij, 2), with B = A A^T (scipy)."""
    a = _biadjacency(rows, cols, n_left, n_right)
    if n_left > n_right:
        a = a.T.tocsr()
    b = (a @ a.T).tocsr()
    vals = b.data.astype(np.int64)
    diag = b.diagonal().astype(np.int64)
    all_pairs = int(np.sum(vals * (vals - 1)) // 2)
    diag_pairs = int(np.sum(diag * (diag - 1)) // 2)
    return (all_pairs - diag_pairs) // 2


def _left_vertex_butterflies(a):
    """Per-left-vertex butterfly counts of the pattern ``a`` (CSR)."""
    b = (a @ a.T).tocsr()
    b.setdiag(0)
    b.eliminate_zeros()
    vals = b.data.astype(np.int64)
    running = np.concatenate([[0], np.cumsum(vals * (vals - 1) // 2)])
    return running[b.indptr[1:]] - running[b.indptr[:-1]]


def tip_oracle(rows, cols, n_left, n_right, k):
    """k-tip of the left side as a masked-product fixpoint.

    Each round zeroes the rows of the left vertices with fewer than ``k``
    butterflies and recounts, until no vertex drops; returns
    ``(kept_vertex_ids, rounds)`` counted the way the program counts them
    (the last round is the one that removes nothing).
    """
    a = _biadjacency(rows, cols, n_left, n_right)
    kept = np.ones(n_left, dtype=bool)
    rounds = 0
    while True:
        rounds += 1
        mask = sp.diags(kept.astype(np.int64), dtype=np.int64)
        counts = _left_vertex_butterflies(mask @ a)
        offenders = kept & (counts < k)
        if not offenders.any():
            break
        kept &= ~offenders
        if not kept.any():
            break
    return np.flatnonzero(kept), rounds


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an input graph and the call made on it."""

    name: str
    why: str
    model: str  # "power_law" | "gnm"
    shape: tuple  # (n_left, n_right, n_edges)
    seed_offset: int  # graph seed = --seed + seed_offset
    task: str  # "count" | "tip"
    k: int = 0

    def graph_seed(self, seed: int) -> int:
        return seed + self.seed_offset

    def edges(self, seed: int):
        gen = power_law_edges if self.model == "power_law" else gnm_edges
        return gen(*self.shape, seed=self.graph_seed(seed))

    def expected(self, rows, cols):
        """The oracle's answer, in the form the child reports."""
        n_left, n_right, _ = self.shape
        if self.task == "count":
            return butterflies_oracle(rows, cols, n_left, n_right)
        kept, rounds = tip_oracle(rows, cols, n_left, n_right, self.k)
        return {"kept": kept.tolist(), "rounds": rounds}

    def prepare(self, seed: int, directory: str):
        """Write the input file; return ``(path, n_edges, expected)``."""
        rows, cols = self.edges(seed)
        path = os.path.join(directory, f"{self.name}-{seed}.konect")
        write_konect(path, rows, cols, self.shape[0], self.shape[1])
        return path, int(rows.size), self.expected(rows, cols)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "count_dense",
            "heavy kernel path: 35.8M wedges through the planner's pooled "
            "wedge plan; kernel, planner, layout and pool changes show here",
            "power_law", (3000, 4000, 150000), 0, "count",
        ),
        Workload(
            "count_wide",
            "ingest-bound: 600k edges over 402k vertices but a light kernel; "
            "load and CSR/CSC build changes show, kernel changes should not",
            "gnm", (2000, 400000, 600000), 4, "count",
        ),
        Workload(
            "peel_tip",
            "k-tip peeling recounts per-vertex butterflies on a shrinking "
            "graph through the shared pool each round",
            "power_law", (30000, 40000, 120000), 10, "tip", k=1000,
        ),
    )
}
