"""Independent baselines and oracles for cross-checking the family."""

from repro.baselines.bruteforce import (
    count_butterflies_bruteforce,
    count_butterflies_networkx,
    edge_support_bruteforce,
    enumerate_butterflies,
    vertex_counts_bruteforce,
)
from repro.baselines.chiba_nishizeki import count_butterflies_degree_ordered
from repro.baselines.graphblas_style import (
    count_butterflies_graphblas,
    wedge_matrix_graphblas,
)
from repro.baselines.sampling import (
    AdaptiveEstimate,
    SampleEstimate,
    estimate_butterflies_adaptive,
    estimate_butterflies_edge_sampling,
    estimate_butterflies_wedge_sampling,
)
from repro.baselines.scipy_reference import (
    count_butterflies_scipy,
    vertex_counts_scipy,
    wedge_matrix_scipy,
)
from repro.baselines.sparsify import (
    estimate_butterflies_cspar,
    estimate_butterflies_espar,
    sparsify_bernoulli,
    sparsify_colorful,
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
    "SampleEstimate",
    "estimate_butterflies_edge_sampling",
    "estimate_butterflies_wedge_sampling",
    "count_butterflies_graphblas",
    "wedge_matrix_graphblas",
    "sparsify_bernoulli",
    "sparsify_colorful",
    "estimate_butterflies_espar",
    "estimate_butterflies_cspar",
    "AdaptiveEstimate",
    "estimate_butterflies_adaptive",
    "count_butterflies_wang_baseline",
    "count_butterflies_wang_space_efficient",
    "count_butterflies_wang_partitioned",
    "PartitionedCountResult",
]
