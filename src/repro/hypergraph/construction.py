"""Building occurrence / instance hypergraphs (Definitions 3.1.3–3.1.4).

Given a pattern ``P`` with occurrences ``f_1..f_m`` in a data graph ``G``:

* the **occurrence hypergraph** has one vertex per distinct pattern-node
  image and one edge ``e_i = f_i(V_P)`` per occurrence, labeled ``f_i``;
* the **instance hypergraph** has one edge per *instance* (distinct image
  subgraph), labeled ``S_i``.

Both are k-uniform with ``k = |V_P|`` (every occurrence is injective).

Occurrence enumeration routes through the data graph's acceleration index
by default (see :mod:`repro.index`); pass ``index=False`` for the
brute-force reference path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..graph.labeled_graph import LabeledGraph
from ..graph.pattern import Pattern
from ..index.graph_index import IndexArg
from ..isomorphism.matcher import (
    Instance,
    Occurrence,
    find_occurrences,
    group_into_instances,
)
from .hypergraph import Hypergraph


def occurrence_hypergraph_from(
    occurrences: Sequence[Occurrence], name: str = "occurrence-hypergraph"
) -> Hypergraph:
    """Build the occurrence hypergraph from pre-enumerated occurrences."""
    hypergraph = Hypergraph(name=name)
    for occurrence in occurrences:
        hypergraph.add_edge(occurrence.label(), occurrence.vertex_set)
    return hypergraph


def instance_hypergraph_from(
    instances: Sequence[Instance], name: str = "instance-hypergraph"
) -> Hypergraph:
    """Build the instance hypergraph from pre-grouped instances."""
    hypergraph = Hypergraph(name=name)
    for instance in instances:
        hypergraph.add_edge(instance.label(), instance.vertex_set)
    return hypergraph


def occurrence_hypergraph(
    pattern: Pattern,
    data: LabeledGraph,
    limit: Optional[int] = None,
    index: IndexArg = None,
) -> Hypergraph:
    """Enumerate occurrences of ``pattern`` in ``data`` and build ``H_O``."""
    return occurrence_hypergraph_from(
        find_occurrences(pattern, data, limit=limit, index=index)
    )


def instance_hypergraph(
    pattern: Pattern,
    data: LabeledGraph,
    limit: Optional[int] = None,
    index: IndexArg = None,
) -> Hypergraph:
    """Enumerate instances of ``pattern`` in ``data`` and build ``H_I``."""
    occurrences = find_occurrences(pattern, data, limit=limit, index=index)
    return instance_hypergraph_from(group_into_instances(pattern, occurrences))


class HypergraphBundle:
    """Everything the framework derives from one (pattern, graph) pair.

    Computing occurrences is the expensive step, so callers that need
    several views should build one bundle and share it between measures
    (this is what :mod:`repro.analysis.spectrum` does).  The derived views
    — instances and both hypergraphs — are computed **lazily** on first
    access and cached: occurrence-only measures (MNI, MI, occurrence
    counts) never pay for instance grouping, which is a large share of the
    miner's per-candidate cost.
    """

    __slots__ = (
        "pattern",
        "data",
        "occurrences",
        "_instances",
        "_occurrence_hg",
        "_instance_hg",
    )

    def __init__(
        self,
        pattern: Pattern,
        data: LabeledGraph,
        occurrences: List[Occurrence],
    ) -> None:
        self.pattern = pattern
        self.data = data
        self.occurrences = occurrences
        self._instances: Optional[List[Instance]] = None
        self._occurrence_hg: Optional[Hypergraph] = None
        self._instance_hg: Optional[Hypergraph] = None

    @classmethod
    def build(
        cls,
        pattern: Pattern,
        data: LabeledGraph,
        limit: Optional[int] = None,
        index: IndexArg = None,
    ) -> "HypergraphBundle":
        """Enumerate occurrences once; derived views materialize on demand."""
        return cls(
            pattern=pattern,
            data=data,
            occurrences=find_occurrences(pattern, data, limit=limit, index=index),
        )

    @property
    def instances(self) -> List[Instance]:
        if self._instances is None:
            self._instances = group_into_instances(self.pattern, self.occurrences)
        return self._instances

    @property
    def occurrence_hg(self) -> Hypergraph:
        if self._occurrence_hg is None:
            self._occurrence_hg = occurrence_hypergraph_from(self.occurrences)
        return self._occurrence_hg

    @property
    def instance_hg(self) -> Hypergraph:
        if self._instance_hg is None:
            self._instance_hg = instance_hypergraph_from(self.instances)
        return self._instance_hg

    @property
    def num_occurrences(self) -> int:
        return len(self.occurrences)

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    def view(self, which: str) -> Hypergraph:
        """Select ``"occurrence"`` or ``"instance"`` hypergraph by name."""
        if which == "occurrence":
            return self.occurrence_hg
        if which == "instance":
            return self.instance_hg
        raise ValueError(f"unknown hypergraph view {which!r}")
