"""End-to-end workflow on a KONECT-style affiliation network.

Scenario: you have an author–venue affiliation file in KONECT format (the
paper's evaluation datasets have exactly this shape).  This example
generates one (standing in for a download), writes/reads it through the
KONECT I/O layer, then produces a structural report: exact butterfly count
(cross-checked across family members), clustering,
degree-ordered acceleration, and the densest core found by peeling.

Run:  python examples/affiliation_network_report.py
"""

import tempfile
from pathlib import Path

from repro import (
    bipartite_clustering_coefficient,
    count_butterflies,
    count_butterflies_unblocked,
    k_wing,
    load_konect,
    power_law_bipartite,
    save_konect,
)
from repro.baselines import count_butterflies_degree_ordered
from repro.bench import time_callable
from repro.graphs import graph_stats


def main() -> None:
    # -- obtain the data -----------------------------------------------------
    # stand-in for e.g. KONECT "arXiv cond-mat": authors x papers
    network = power_law_bipartite(3000, 4500, 18_000, gamma_left=2.2,
                                  gamma_right=2.4, seed=2024)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "affiliations.konect"
        save_konect(network, path)
        g = load_konect(path)
    assert g == network
    print(f"loaded affiliation network: {g}")

    # -- structural report -----------------------------------------------------
    stats = graph_stats(g)
    print(f"density: {stats.density:.5f}   side ratio |V1|/|V2|: "
          f"{stats.side_ratio:.2f}")
    print(f"max degrees: authors {stats.max_degree_left}, "
          f"venues {stats.max_degree_right}")

    # -- exact counting, with the Section V selection rule ---------------------
    # |V1| < |V2| here, so the row family (invariants 5-8) is the right pick;
    # time both to see the rule in action.
    col_member = time_callable(
        lambda: count_butterflies_unblocked(g, 2, strategy="spmv"), repeats=1
    )
    row_member = time_callable(
        lambda: count_butterflies_unblocked(g, 6, strategy="spmv"), repeats=1
    )
    print(f"\ninvariant 2 (traverse V2, the larger side): "
          f"{col_member.seconds:.3f}s -> {col_member.value}")
    print(f"invariant 6 (traverse V1, the smaller side): "
          f"{row_member.seconds:.3f}s -> {row_member.value}")
    assert col_member.value == row_member.value
    total = row_member.value

    # -- acceleration ------------------------------------------------------------
    ordered = time_callable(
        lambda: count_butterflies_degree_ordered(g), repeats=1
    )
    print(f"degree-ordered counter: {ordered.seconds:.3f}s -> {ordered.value}")

    cc = bipartite_clustering_coefficient(g, butterflies=total)
    print(f"clustering coefficient C4 = {cc:.5f}")

    # -- densest collaboration core -------------------------------------------
    for k in (1, 2, 4, 8):
        wing = k_wing(g, k)
        if wing.n_edges == 0:
            break
        core = count_butterflies(wing.subgraph)
        print(f"{k}-wing core: {wing.n_edges} edges, {core} butterflies")


if __name__ == "__main__":
    main()
