"""Indexed acceleration layer for data-graph hot paths.

See :mod:`repro.index.graph_index` for the design notes,
:mod:`repro.index.delta` for incremental (delta-patched) maintenance,
:mod:`repro.index.maintainable` for the maintainable-index protocol
shared with the partition layer, and ``docs/architecture.md`` for how
the rest of the library routes through it.
"""

from .delta import (
    DeltaCursor,
    DeltaLog,
    EdgeAdded,
    EdgeRemoved,
    GraphDelta,
    IndexMaintainer,
    VertexAdded,
    VertexRemoved,
)
from .compact import LabelTable, projected_index_nbytes
from .graph_index import GraphIndex, IndexArg, get_index, resolve_index
from .maintainable import DeltaMaintainer, MaintainableIndex

__all__ = [
    "GraphIndex",
    "LabelTable",
    "IndexArg",
    "get_index",
    "resolve_index",
    "projected_index_nbytes",
    "GraphDelta",
    "VertexAdded",
    "EdgeAdded",
    "EdgeRemoved",
    "VertexRemoved",
    "DeltaLog",
    "DeltaCursor",
    "IndexMaintainer",
    "MaintainableIndex",
    "DeltaMaintainer",
]
