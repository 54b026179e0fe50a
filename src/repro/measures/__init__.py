"""Support measures: MNI, MI, MVC, MIS, MIES, MCP, LP relaxations, bounds.

Each NP-hard problem has one exact kernel that solves the whole graph it is
given — :func:`minimum_vertex_cover`, :func:`maximum_independent_set` (which
MIES runs on, over the edge-intersection graph:
:func:`maximum_independent_edge_set`) and :func:`minimum_clique_partition` —
and one entry point that splits by connected component, runs the kernel per
component and sums: :func:`mvc_support_of`, :func:`mies_support_of`,
:func:`mis_support_of` and :func:`mcp_support_of`.  Their ``budget`` bounds
each component's search.  The registered measures call the entry points;
``mis`` and ``mis_occurrence`` are computed as MIES (Theorem 4.1).  The LP
relaxations solve the whole hypergraph: they are polynomial.
"""

from .base import (
    MeasureInfo,
    available_measures,
    compute_support,
    measure_info,
)
from .counts import instance_count, occurrence_count
from .mni import (
    mni_k_support_from_occurrences,
    mni_support,
    mni_support_from_occurrences,
    node_image_counts,
)
from .mi import (
    coarse_grained_image_count,
    mi_support,
    mi_support_breakdown,
    mi_support_from_occurrences,
)
from .mvc import (
    greedy_vertex_cover,
    is_vertex_cover,
    lp_relaxed_cover,
    lp_rounded_vertex_cover,
    minimum_vertex_cover,
    mvc_support,
    mvc_support_of,
)
from .mis import (
    greedy_independent_set,
    maximum_independent_set,
    mis_support,
    mis_support_of,
)
from .mies import (
    is_independent_edge_set,
    maximum_independent_edge_set,
    mies_support,
    mies_support_of,
)
from .mcp import (
    greedy_clique_partition,
    mcp_support,
    mcp_support_of,
    minimum_clique_partition,
)
from .relaxations import (
    fractional_solutions,
    lp_mies_support_of,
    lp_mvc_support_of,
)
from .bounds import CHAIN_TEXT, ChainReport, chain_values, verify_bounding_chain
from .lazy_mni import lazy_mni_support, mni_at_least
from .extensions import (
    projected_hypergraph,
    projected_mvc_breakdown,
    projected_mvc_support_from_occurrences,
)

__all__ = [
    "MeasureInfo",
    "available_measures",
    "compute_support",
    "measure_info",
    "instance_count",
    "occurrence_count",
    "mni_k_support_from_occurrences",
    "mni_support",
    "mni_support_from_occurrences",
    "node_image_counts",
    "coarse_grained_image_count",
    "mi_support",
    "mi_support_breakdown",
    "mi_support_from_occurrences",
    "greedy_vertex_cover",
    "is_vertex_cover",
    "lp_relaxed_cover",
    "lp_rounded_vertex_cover",
    "minimum_vertex_cover",
    "mvc_support",
    "mvc_support_of",
    "greedy_independent_set",
    "maximum_independent_set",
    "mis_support",
    "mis_support_of",
    "is_independent_edge_set",
    "maximum_independent_edge_set",
    "mies_support",
    "mies_support_of",
    "greedy_clique_partition",
    "mcp_support",
    "mcp_support_of",
    "minimum_clique_partition",
    "fractional_solutions",
    "lp_mies_support_of",
    "lp_mvc_support_of",
    "CHAIN_TEXT",
    "ChainReport",
    "chain_values",
    "verify_bounding_chain",
    "projected_hypergraph",
    "projected_mvc_breakdown",
    "projected_mvc_support_from_occurrences",
    "lazy_mni_support",
    "mni_at_least",
]
