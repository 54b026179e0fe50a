"""Compact storage primitives behind :class:`~repro.index.GraphIndex`.

* :class:`LabelTable` interns vertex ids and labels to the dense ints
  (vints / lints) the index buffers are keyed by;
* :func:`projected_index_nbytes` is the analytic footprint of an index
  over a graph of a given size — the deterministic weight model of the
  shard views the in-process runner holds.

The index itself (CSR rows, inverted lists, label-pair edge counts, and
their O(delta) patching) lives in :mod:`repro.index.graph_index`.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from ..graph.labeled_graph import Label, Vertex


class LabelTable:
    """Interns vertex ids and labels to dense ints (vints / lints).

    Slots are assigned in canonical (``repr``-sorted) order when the table
    is built and appended in arrival order for keys first seen by a patch.
    Slots are never recycled for a *different* key: removing a vertex
    leaves its slot tombstoned in the owning index (label ``-1``), and
    re-adding the same vertex revives the old slot.  Only a rebuild —
    which constructs a fresh table — reclaims retired entries.
    """

    __slots__ = ("vertex_of", "label_of", "_vint_of", "_lint_of")

    def __init__(self, vertices, labels) -> None:
        self.vertex_of: List[Vertex] = list(vertices)
        self.label_of: List[Label] = list(labels)
        self._vint_of: Dict[Vertex, int] = {
            v: i for i, v in enumerate(self.vertex_of)
        }
        self._lint_of: Dict[Label, int] = {
            l: i for i, l in enumerate(self.label_of)
        }

    def vint(self, vertex: Vertex) -> int:
        """The dense id of ``vertex`` (KeyError when never interned)."""
        return self._vint_of[vertex]

    def lint(self, label: Label) -> Optional[int]:
        """The dense id of ``label``, or ``None`` when never interned."""
        return self._lint_of.get(label)

    def intern_vertex(self, vertex: Vertex) -> int:
        """The slot for ``vertex``, appending a fresh one when unseen."""
        vi = self._vint_of.get(vertex)
        if vi is None:
            vi = len(self.vertex_of)
            self.vertex_of.append(vertex)
            self._vint_of[vertex] = vi
        return vi

    def intern_label(self, label: Label) -> int:
        """The slot for ``label``, appending a fresh one when unseen."""
        li = self._lint_of.get(label)
        if li is None:
            li = len(self.label_of)
            self.label_of.append(label)
            self._lint_of[label] = li
        return li

    @property
    def entries(self) -> int:
        """Total interned slots (vertices + labels), tombstones included."""
        return len(self.vertex_of) + len(self.label_of)

    def nbytes(self) -> int:
        """Approximate resident bytes of the table itself.

        The interned key objects are shared with the graph and not
        charged here.
        """
        return (
            sys.getsizeof(self.vertex_of)
            + sys.getsizeof(self.label_of)
            + sys.getsizeof(self._vint_of)
            + sys.getsizeof(self._lint_of)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LabelTable vertices={len(self.vertex_of)} "
            f"labels={len(self.label_of)}>"
        )


# ----------------------------------------------------------------------
# projected footprints (the shard views' deterministic weight model)
# ----------------------------------------------------------------------
#: Per-entry byte estimates (per-vertex, per-edge, per-label), calibrated
#: against ``GraphIndex.nbytes()`` on CPython 3.11/64-bit synthetic graphs
#: (see ``tests/test_compact_index.py::test_projected_footprint_tracks_nbytes``).
_FOOTPRINT_COEFFICIENTS = (180, 14, 900)


def projected_index_nbytes(num_vertices: int, num_edges: int, num_labels: int) -> int:
    """Deterministic footprint estimate for an index over a graph this size.

    Used by :class:`repro.partition.ShardedIndex` to weigh the halo views
    it caches: the accounting must be cheap and reproducible, so it uses
    this projection rather than measuring a (possibly not yet built)
    per-view index.
    """
    per_vertex, per_edge, per_label = _FOOTPRINT_COEFFICIENTS
    return (
        256  # fixed container overhead
        + per_vertex * num_vertices
        + per_edge * num_edges
        + per_label * num_labels
    )
