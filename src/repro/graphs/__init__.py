"""Bipartite graph substrate: container, generators, I/O, datasets, stats."""

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import (
    chung_lu_bipartite,
    configuration_model_bipartite,
    erdos_renyi_bipartite,
    gnm_bipartite,
    planted_bicliques,
    power_law_bipartite,
)
from repro.graphs.io import load_edge_list, load_konect, save_edge_list, save_konect
from repro.graphs.datasets import (
    DATASETS,
    DatasetSpec,
    dataset_names,
    load_dataset,
    paper_stats,
)
from repro.graphs.ordering import (
    degree_order,
    order_by_degree,
    order_side_by_degree,
    shuffle_labels,
)
from repro.graphs.cleanup import ReducedGraph, drop_isolated, two_two_core
from repro.graphs.rewire import rewire_edges
from repro.graphs.projection import (
    count_from_projection,
    is_butterfly_free,
    project,
)
from repro.graphs.stats import (
    GraphStats,
    graph_stats,
    wedge_count_left,
    wedge_count_right,
)

__all__ = [
    "BipartiteGraph",
    "erdos_renyi_bipartite",
    "gnm_bipartite",
    "chung_lu_bipartite",
    "configuration_model_bipartite",
    "power_law_bipartite",
    "planted_bicliques",
    "load_konect",
    "save_konect",
    "load_edge_list",
    "save_edge_list",
    "DATASETS",
    "DatasetSpec",
    "dataset_names",
    "load_dataset",
    "paper_stats",
    "degree_order",
    "order_by_degree",
    "order_side_by_degree",
    "shuffle_labels",
    "GraphStats",
    "graph_stats",
    "wedge_count_left",
    "wedge_count_right",
    "project",
    "count_from_projection",
    "is_butterfly_free",
    "ReducedGraph",
    "drop_isolated",
    "two_two_core",
    "rewire_edges",
]
