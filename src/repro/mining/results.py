"""Result types for the frequent-subgraph miner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..graph.pattern import Pattern


@dataclass(frozen=True)
class FrequentPattern:
    """One mined frequent pattern with its support value."""

    pattern: Pattern
    support: float
    certificate: str
    num_occurrences: int

    @property
    def num_nodes(self) -> int:
        return self.pattern.num_nodes

    @property
    def num_edges(self) -> int:
        return self.pattern.num_edges

    def __repr__(self) -> str:
        return (
            f"<FrequentPattern nodes={self.num_nodes} edges={self.num_edges} "
            f"support={self.support:g}>"
        )


@dataclass
class MiningStats:
    """Counters describing one mining run."""

    patterns_generated: int = 0
    patterns_evaluated: int = 0
    patterns_frequent: int = 0
    patterns_pruned: int = 0
    duplicates_skipped: int = 0
    support_calls: int = 0
    occurrence_enumerations: int = 0
    # Dynamic (delta-maintained) mining only — see repro.mining.dynamic:
    patterns_reused: int = 0
    patterns_skipped_unaffected: int = 0
    patterns_revived: int = 0
    # Parents whose children a maintained walk replayed from its
    # lattice memo instead of regenerating them (0 for static mines).
    extensions_reused: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "patterns_generated": self.patterns_generated,
            "patterns_evaluated": self.patterns_evaluated,
            "patterns_frequent": self.patterns_frequent,
            "patterns_pruned": self.patterns_pruned,
            "duplicates_skipped": self.duplicates_skipped,
            "support_calls": self.support_calls,
            "occurrence_enumerations": self.occurrence_enumerations,
            "patterns_reused": self.patterns_reused,
            "patterns_skipped_unaffected": self.patterns_skipped_unaffected,
            "patterns_revived": self.patterns_revived,
            "extensions_reused": self.extensions_reused,
        }


@dataclass
class MiningResult:
    """Everything a mining run produced."""

    frequent: List[FrequentPattern]
    stats: MiningStats
    measure: str
    min_support: float

    @property
    def num_frequent(self) -> int:
        return len(self.frequent)

    def by_size(self) -> Dict[int, List[FrequentPattern]]:
        """Frequent patterns grouped by edge count."""
        grouped: Dict[int, List[FrequentPattern]] = {}
        for item in self.frequent:
            grouped.setdefault(item.num_edges, []).append(item)
        return grouped

    def certificates(self) -> List[str]:
        """Canonical certificates of all frequent patterns (sorted)."""
        return sorted(item.certificate for item in self.frequent)

    def max_pattern_edges(self) -> int:
        """Largest frequent pattern size found (0 when none)."""
        if not self.frequent:
            return 0
        return max(item.num_edges for item in self.frequent)
