"""Per-candidate support evaluation shared by every evaluator.

:func:`evaluate_support` evaluates one candidate against one graph: the
serial flat path of the lattice walk
(:meth:`repro.mining.miner._Session.evaluate`) calls it per candidate,
and the sharded planner (:func:`repro.partition.workers.pooled_outcomes`)
falls back to it for the patterns the per-shard argument does not
cover.  :func:`label_frequency_bound` is the GraMi prune that it and
the shard planner (:func:`repro.partition.evaluate.plan_candidate`)
apply before enumerating a single occurrence.

Pooled evaluation has one executor, the shard-resident
:class:`~repro.partition.workers.ShardWorkerPool`: a flat session with
``workers > 1`` runs there as a one-shard session whose whole-graph
view is replicated to every worker.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..graph.labeled_graph import LabeledGraph
from ..graph.pattern import Pattern

#: Measures bounded above by sigma_MNI (the Section 4.4 chain plus PMVC),
#: and hence by the rarest pattern-node label's frequency in the data
#: graph.  For these, a candidate whose label-frequency bound already sits
#: below the threshold is pruned without enumerating a single occurrence
#: (the GraMi trick, applied identically on the indexed and brute paths).
LABEL_FREQUENCY_BOUNDED = frozenset(
    {"mni", "mi", "mvc", "mis", "mies", "lp_mvc", "lp_mies", "pmvc"}
)


def label_frequency_bound(pattern: Pattern, histogram: Dict) -> int:
    """``min_v |{u : lambda(u) = lambda_P(v)}|`` — an upper bound on MNI."""
    return min(
        (histogram.get(pattern.label_of(node), 0) for node in pattern.nodes()),
        default=0,
    )


def evaluate_support(
    pattern: Pattern,
    data: LabeledGraph,
    measure: str,
    *,
    lazy: bool,
    lazy_cap: int,
    max_occurrences: Optional[int],
    index_arg,
    histogram: Optional[Dict] = None,
    prune_below: Optional[float] = None,
) -> Tuple[float, int]:
    """Evaluate one candidate; returns ``(support, num_occurrences)``.

    ``num_occurrences`` is ``-1`` when occurrences were never enumerated —
    lazy mode, or a label-frequency-bound prune (``prune_below`` set, the
    measure in :data:`LABEL_FREQUENCY_BOUNDED`, and the bound already below
    the threshold; the returned support is then the bound itself, which
    over-states the true support but preserves every pruning decision).
    Shared by the serial miner and the sharded planner's flat fallback,
    so both make byte-identical decisions.
    """
    if lazy:
        from ..measures.lazy_mni import lazy_mni_support

        support = float(lazy_mni_support(pattern, data, cap=lazy_cap, index=index_arg))
        return support, -1
    if (
        prune_below is not None
        and histogram is not None
        and measure in LABEL_FREQUENCY_BOUNDED
    ):
        bound = label_frequency_bound(pattern, histogram)
        if bound < prune_below:
            return float(bound), -1
    from ..hypergraph.construction import HypergraphBundle
    from ..measures.base import compute_support

    bundle = HypergraphBundle.build(
        pattern, data, limit=max_occurrences, index=index_arg
    )
    support = compute_support(measure, pattern, data, bundle=bundle)
    return support, bundle.num_occurrences

