"""Process-pool support evaluation for the frequent-subgraph miner.

Support evaluation dominates mining time and candidates at one search
level are independent of each other, so the miner can farm them out to a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Design notes:

* the **data graph is shipped once per worker** (pool initializer), not
  once per candidate; each worker builds its own :class:`GraphIndex` on
  first use and reuses it for every candidate it evaluates;
* workers return plain ``(support, num_occurrences)`` tuples — patterns
  and certificates stay in the parent, so nothing model-sized crosses the
  process boundary back;
* results come back through ``Executor.map``, which preserves submission
  order, so mining results are **deterministic and identical to the
  serial path** regardless of worker count or scheduling.

Flat pooled sessions only: a sharded pooled session always runs on the
shard-resident :class:`~repro.partition.workers.ShardWorkerPool`, planned
and merged through :func:`repro.partition.workers.pooled_outcomes`.

The helpers live in their own module (not nested in the miner class) so
they are picklable under every ``multiprocessing`` start method.
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
    Shared by the serial miner and the process-pool workers so both modes
    make byte-identical decisions.
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


#: Per-worker state installed by :func:`init_worker` (one dict per process).
_WORKER_STATE: Dict[str, object] = {}


def init_worker(
    data: LabeledGraph,
    measure: str,
    lazy: bool,
    lazy_cap: int,
    max_occurrences: Optional[int],
    use_index: bool,
    prune_below: Optional[float],
) -> None:
    """Pool initializer: stash the shared evaluation context in the worker."""
    if use_index:
        from ..index.graph_index import get_index

        get_index(data)  # build once; cached on the graph for all candidates
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        data=data,
        measure=measure,
        lazy=lazy,
        lazy_cap=lazy_cap,
        max_occurrences=max_occurrences,
        index_arg=None if use_index else False,
        histogram=data.label_histogram(),
        prune_below=prune_below,
    )


def evaluate_candidate(pattern: Pattern) -> Tuple[float, int]:
    """Evaluate one candidate in a worker (see :func:`evaluate_support`)."""
    state = _WORKER_STATE
    return evaluate_support(
        pattern,
        state["data"],  # type: ignore[arg-type]
        str(state["measure"]),
        lazy=bool(state["lazy"]),
        lazy_cap=int(state["lazy_cap"]),  # type: ignore[arg-type]
        max_occurrences=state["max_occurrences"],  # type: ignore[arg-type]
        index_arg=state["index_arg"],
        histogram=state["histogram"],  # type: ignore[arg-type]
        prune_below=state["prune_below"],  # type: ignore[arg-type]
    )
