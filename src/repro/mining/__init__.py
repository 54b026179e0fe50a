"""Frequent-subgraph mining over a single graph with pluggable measures."""

from .extension import (
    adjacent_label_pairs,
    all_extensions,
    backward_extensions,
    forward_extensions,
    single_edge_patterns,
)
from .dynamic import (
    DynamicMiner,
    StreamApplier,
    StreamBatch,
    mine_stream,
    pattern_footprint,
)
from .miner import FrequentSubgraphMiner, mine_frequent_patterns
from .results import FrequentPattern, MiningResult, MiningStats
from .spec import DEFAULT_SPEC, MiningSpec
from .standing import (
    AnswerEntry,
    AnswerEvent,
    StandingSpec,
    answer_from_result,
    diff_answer,
    evaluate_standing,
    replay_answer,
)
from .transaction import disjoint_union, transaction_support

__all__ = [
    "DynamicMiner",
    "StreamApplier",
    "StreamBatch",
    "mine_stream",
    "pattern_footprint",
    "MiningSpec",
    "DEFAULT_SPEC",
    "adjacent_label_pairs",
    "all_extensions",
    "backward_extensions",
    "forward_extensions",
    "single_edge_patterns",
    "FrequentSubgraphMiner",
    "mine_frequent_patterns",
    "FrequentPattern",
    "MiningResult",
    "MiningStats",
    "disjoint_union",
    "transaction_support",
    "StandingSpec",
    "AnswerEntry",
    "AnswerEvent",
    "answer_from_result",
    "diff_answer",
    "evaluate_standing",
    "replay_answer",
]
