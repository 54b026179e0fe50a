"""Hypergraph framework: hypergraphs, duals, construction, overlap semantics."""

from .hypergraph import (
    DualHypergraph,
    Hyperedge,
    Hypergraph,
    component_statistics,
    dual_hypergraph,
)
from .construction import (
    HypergraphBundle,
    instance_hypergraph,
    instance_hypergraph_from,
    occurrence_hypergraph,
    occurrence_hypergraph_from,
)
from .overlap import (
    OVERLAP_KINDS,
    OverlapGraph,
    OverlapStatistics,
    edge_overlap,
    harmful_overlap,
    instance_overlap_graph,
    occurrence_overlap_graph,
    overlap_statistics,
    overlaps,
    simple_overlap,
    structural_overlap,
)

__all__ = [
    "DualHypergraph",
    "Hyperedge",
    "Hypergraph",
    "component_statistics",
    "dual_hypergraph",
    "HypergraphBundle",
    "instance_hypergraph",
    "instance_hypergraph_from",
    "occurrence_hypergraph",
    "occurrence_hypergraph_from",
    "OVERLAP_KINDS",
    "OverlapGraph",
    "OverlapStatistics",
    "edge_overlap",
    "harmful_overlap",
    "instance_overlap_graph",
    "occurrence_overlap_graph",
    "overlap_statistics",
    "overlaps",
    "simple_overlap",
    "structural_overlap",
]
