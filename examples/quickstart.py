"""Quickstart: count butterflies, inspect the family, peel a graph.

Run:  python examples/quickstart.py
"""

from repro import (
    ALL_INVARIANTS,
    bipartite_clustering_coefficient,
    count_butterflies,
    count_butterflies_blocked,
    count_butterflies_parallel,
    count_butterflies_unblocked,
    k_tip,
    k_wing,
    power_law_bipartite,
    vertex_butterfly_counts,
)


def main() -> None:
    # A heavy-tailed random bipartite graph, like a small affiliation network.
    g = power_law_bipartite(n_left=2000, n_right=3000, n_edges=12_000, seed=7)
    print(f"graph: {g}")

    # --- counting ---------------------------------------------------------
    # Auto mode runs the planner's serial production plan (the
    # vertex-priority kernel or a blocked panel sweep, whichever the cost
    # model scores cheaper).
    total = count_butterflies(g)
    print(f"butterflies (auto plan): {total}")

    # Every one of the paper's 8 loop invariants yields the same count.
    for inv in ALL_INVARIANTS:
        assert count_butterflies_unblocked(g, inv) == total
    print("all 8 invariants agree ✔")

    # Blocked and parallel executors, same answer.
    assert count_butterflies_blocked(g, invariant=2, block_size=128) == total
    assert count_butterflies_parallel(g, n_workers=2, executor="serial") == total
    print("blocked and parallel executors agree ✔")

    # --- graph-level metrics ----------------------------------------------
    cc = bipartite_clustering_coefficient(g, butterflies=total)
    print(f"bipartite clustering coefficient C4 = {cc:.4f}")

    # --- local structure ----------------------------------------------------
    per_vertex = vertex_butterfly_counts(g, "left")
    hub = int(per_vertex.argmax())
    print(f"most butterfly-active left vertex: {hub} "
          f"({int(per_vertex[hub])} butterflies)")

    # --- peeling -------------------------------------------------------------
    tip = k_tip(g, k=5, side="left")
    print(f"5-tip: {tip.n_kept} of {g.n_left} left vertices survive "
          f"({tip.rounds} peel rounds)")
    wing = k_wing(g, k=2)
    print(f"2-wing: {wing.n_edges} of {g.n_edges} edges survive "
          f"({wing.rounds} peel rounds)")


if __name__ == "__main__":
    main()
