"""Independent baselines and oracles for cross-checking the family."""

from repro.baselines.bruteforce import (
    count_butterflies_bruteforce,
    count_butterflies_networkx,
    edge_support_bruteforce,
    enumerate_butterflies,
    vertex_counts_bruteforce,
)
from repro.baselines.chiba_nishizeki import count_butterflies_degree_ordered
from repro.baselines.scipy_reference import (
    count_butterflies_scipy,
    vertex_counts_scipy,
    wedge_matrix_scipy,
)
from repro.core.priority import (
    count_butterflies_priority as count_butterflies_vertex_priority,
    priority_ranks,
)
from repro.baselines.wang2014 import (
    PartitionedCountResult,
    count_butterflies_wang_baseline,
    count_butterflies_wang_partitioned,
    count_butterflies_wang_space_efficient,
)

__all__ = [
    "count_butterflies_bruteforce",
    "count_butterflies_networkx",
    "enumerate_butterflies",
    "vertex_counts_bruteforce",
    "edge_support_bruteforce",
    "count_butterflies_scipy",
    "vertex_counts_scipy",
    "wedge_matrix_scipy",
    "count_butterflies_vertex_priority",
    "priority_ranks",
    "count_butterflies_degree_ordered",
    "count_butterflies_wang_baseline",
    "count_butterflies_wang_space_efficient",
    "count_butterflies_wang_partitioned",
    "PartitionedCountResult",
]
