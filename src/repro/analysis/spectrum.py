"""The measure spectrum: every support measure for one (pattern, graph) pair.

The paper's central diagram is the frequency spectrum

    sigma_MIS = sigma_MIES <= nu <= sigma_MVC <= sigma_MI <= sigma_MNI

:func:`measure_spectrum` computes it (plus the raw counts and the MCP
baseline) from a single shared occurrence enumeration, with timing, and
:func:`spectrum_report` renders it as the table the examples print.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graph.labeled_graph import LabeledGraph
from ..graph.pattern import Pattern
from ..hypergraph.construction import HypergraphBundle
from ..measures.base import measure_info
from .report import format_table

#: Spectrum entries in chain order: (key, pretty name, anti-monotonic?).
SPECTRUM_ORDER: List[Tuple[str, str, bool]] = [
    ("occurrences", "occurrence count", False),
    ("instances", "instance count", False),
    ("mis", "sigma_MIS", True),
    ("mies", "sigma_MIES", True),
    ("lp_mies", "nu_MIES", True),
    ("lp_mvc", "nu_MVC", True),
    ("mvc", "sigma_MVC", True),
    ("mi", "sigma_MI", True),
    ("mni", "sigma_MNI", True),
    ("mcp", "sigma_MCP", True),
]


@dataclass
class SpectrumEntry:
    """One measure's value and wall-clock cost within a spectrum."""

    key: str
    display: str
    value: float
    seconds: float
    anti_monotonic: bool


@dataclass
class Spectrum:
    """The full measure spectrum for one (pattern, graph) pair."""

    pattern: Pattern
    entries: List[SpectrumEntry]
    enumeration_seconds: float
    num_occurrences: int
    num_instances: int

    def value(self, key: str) -> float:
        for entry in self.entries:
            if entry.key == key:
                return entry.value
        raise KeyError(key)

    def as_dict(self) -> Dict[str, float]:
        return {entry.key: entry.value for entry in self.entries}


def measure_spectrum(
    pattern: Pattern,
    data: LabeledGraph,
    bundle: Optional[HypergraphBundle] = None,
    include: Optional[List[str]] = None,
) -> Spectrum:
    """Compute the (timed) spectrum; ``include`` restricts to given keys.

    Each entry is the registered measure of that name, so the spectrum
    reports exactly what the miner would count.

    Occurrence enumeration is timed separately (the paper's convention is
    to exclude framework-construction time from measure cost).
    """
    start = time.perf_counter()
    if bundle is None:
        bundle = HypergraphBundle.build(pattern, data)
    enumeration_seconds = time.perf_counter() - start

    keys = include if include is not None else [key for key, _, _ in SPECTRUM_ORDER]
    entries: List[SpectrumEntry] = []
    for key, display, anti in SPECTRUM_ORDER:
        if key not in keys:
            continue
        begin = time.perf_counter()
        value = measure_info(key).compute(bundle)
        elapsed = time.perf_counter() - begin
        entries.append(
            SpectrumEntry(
                key=key,
                display=display,
                value=value,
                seconds=elapsed,
                anti_monotonic=anti,
            )
        )
    return Spectrum(
        pattern=pattern,
        entries=entries,
        enumeration_seconds=enumeration_seconds,
        num_occurrences=bundle.num_occurrences,
        num_instances=bundle.num_instances,
    )


def spectrum_report(spectrum: Spectrum, title: Optional[str] = None) -> str:
    """Render a spectrum as an ASCII table."""
    rows = [
        [
            entry.display,
            entry.value,
            f"{entry.seconds * 1000:.2f} ms",
            "yes" if entry.anti_monotonic else "no",
        ]
        for entry in spectrum.entries
    ]
    table = format_table(
        ["measure", "value", "time", "anti-monotonic"],
        rows,
        title=title,
    )
    footer = (
        f"\n({spectrum.num_occurrences} occurrences, "
        f"{spectrum.num_instances} instances; enumeration took "
        f"{spectrum.enumeration_seconds * 1000:.2f} ms)"
    )
    return table + footer
