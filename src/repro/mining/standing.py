"""``StandingSpec`` + answer-change events: the standing-query vocabulary.

A *standing* query inverts ``mine-stream``: instead of re-deriving the
whole frequent set after every update batch, a client registers what it
watches once and receives only the incremental answer changes.  Two
kinds are supported:

* ``kind="pattern"`` — watch one concrete motif: events fire when its
  occurrence set changes or its support crosses ``min_support``;
* ``kind="threshold"`` — watch the whole frequent set of a mining
  question: events fire when any pattern enters or leaves the set, or a
  member's support/occurrence count changes.

:class:`StandingSpec` mirrors :class:`~repro.mining.spec.MiningSpec`:
frozen, validated once, canonical JSON doubling as the wire form and the
cache key, ``from_kwargs`` accepting the same CLI aliases.  The *answer*
of a standing query is a mapping ``certificate -> AnswerEntry`` and the
module's pure functions close the loop the equivalence suite pins:

    ``replay_answer(answer_at_V0, events(V0..V1]) == answer_at_V1``

Every event carries the full new entry (or nulls for a removal), so the
event stream reconstructs the answer diff between any two one-shot
mines at the bracketing versions exactly — byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace as _dataclass_replace
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import MiningError
from ..graph.canonical import canonical_certificate
from ..graph.labeled_graph import LabeledGraph
from ..graph.pattern import Pattern
from ..measures.base import measure_info
from .dynamic import pattern_footprint
from .results import MiningResult
from .spec import DEFAULT_SPEC, FieldTypes, MiningSpec, _ALIASES, check_field_types

#: The standing-query kinds.
STANDING_KINDS = ("pattern", "threshold")

#: Typed answer-change events, in canonical (emission-priority) order.
EVENT_TYPES = (
    "became_frequent",
    "became_infrequent",
    "occurrences_gained",
    "occurrences_lost",
    "support_changed",
)

#: How events reach the client: pulled via ``poll_events`` or pushed as
#: server-initiated ``notify`` lines on the subscriber's connection.
DELIVERY_MODES = ("poll", "push")


def _id_sort_key(value: Any) -> Tuple[bool, str]:
    # Vertex ids may mix ints and strings; (is_str, str(v)) orders both.
    return (isinstance(value, str), str(value))


def _normalize_pattern(value: Any) -> Tuple[Tuple, Tuple]:
    """Canonicalize a pattern argument into nested (nodes, edges) tuples.

    Accepts a :class:`Pattern`, a ``{"nodes": ..., "edges": ...}`` JSON
    object, or a ``(nodes, edges)`` pair.  Nodes and edges are sorted so
    the same motif always serializes to the same canonical form.
    """
    if isinstance(value, Pattern):
        graph = value.graph
        nodes = [(v, graph.label_of(v)) for v in graph.vertices()]
        edges = list(graph.edges())
    elif isinstance(value, Mapping):
        nodes, edges = value.get("nodes"), value.get("edges")
    elif isinstance(value, (tuple, list)) and len(value) == 2:
        nodes, edges = value
    else:
        raise MiningError(
            "pattern must be a Pattern, a {'nodes': ..., 'edges': ...} "
            f"object, or a (nodes, edges) pair, got {type(value).__name__}"
        )
    if not isinstance(nodes, (tuple, list)) or not isinstance(edges, (tuple, list)):
        raise MiningError("pattern 'nodes' and 'edges' must be arrays")
    norm_nodes = []
    for item in nodes:
        if not isinstance(item, (tuple, list)) or len(item) != 2:
            raise MiningError(f"pattern node {item!r} must be a [id, label] pair")
        vid, label = item
        if not isinstance(vid, (int, str)) or isinstance(vid, bool):
            raise MiningError(f"pattern node id {vid!r} must be an int or string")
        norm_nodes.append((vid, label))
    norm_edges = []
    for item in edges:
        if not isinstance(item, (tuple, list)) or len(item) != 2:
            raise MiningError(f"pattern edge {item!r} must be a [u, v] pair")
        u, v = item
        norm_edges.append(tuple(sorted((u, v), key=_id_sort_key)))
    norm_nodes.sort(key=lambda it: _id_sort_key(it[0]))
    norm_edges.sort(key=lambda e: (_id_sort_key(e[0]), _id_sort_key(e[1])))
    return tuple(norm_nodes), tuple(norm_edges)


_STANDING_FIELD_TYPES: FieldTypes = {
    "kind": (str, False),
    "pattern": (tuple, True),
    "measure": (str, False),
    "min_support": (float, False),
    "max_pattern_nodes": (int, False),
    "max_pattern_edges": (int, False),
    "lazy": (bool, False),
    "events": (tuple, True),
    "delivery": (str, False),
}


@dataclass(frozen=True)
class StandingSpec:
    """One validated, canonical description of a standing query.

    ``kind="pattern"`` watches the concrete motif in ``pattern``;
    ``kind="threshold"`` watches the frequent set of the derived
    :meth:`mining_spec` question.  ``events`` optionally restricts which
    event types are delivered (``None`` means all — required for exact
    answer reconstruction); ``delivery`` picks poll or push transport.
    """

    kind: str = "threshold"
    pattern: Optional[Tuple[Tuple, Tuple]] = None
    measure: str = DEFAULT_SPEC.measure
    min_support: float = DEFAULT_SPEC.min_support
    max_pattern_nodes: int = DEFAULT_SPEC.max_pattern_nodes
    max_pattern_edges: int = DEFAULT_SPEC.max_pattern_edges
    lazy: bool = DEFAULT_SPEC.lazy
    events: Optional[Tuple[str, ...]] = None
    delivery: str = "poll"

    def __post_init__(self) -> None:
        check_field_types(self, _STANDING_FIELD_TYPES)
        # Same normalisation as MiningSpec: 3 and 3.0 are one query.
        object.__setattr__(self, "min_support", float(self.min_support))
        if self.kind not in STANDING_KINDS:
            raise MiningError(
                f"unknown standing-query kind {self.kind!r}; "
                f"expected one of: {', '.join(STANDING_KINDS)}"
            )
        info = measure_info(self.measure)
        if not info.anti_monotonic:
            # Footprint routing (and the threshold skip bound) both lean
            # on anti-monotonicity — same restriction as DynamicMiner.
            raise MiningError(
                f"standing queries require an anti-monotonic measure; "
                f"{self.measure!r} is not"
            )
        if self.min_support <= 0:
            raise MiningError("min_support must be positive")
        if self.max_pattern_nodes < 2:
            raise MiningError(
                f"max_pattern_nodes must be >= 2, got {self.max_pattern_nodes}"
            )
        if self.max_pattern_edges < 1:
            raise MiningError(
                f"max_pattern_edges must be >= 1, got {self.max_pattern_edges}"
            )
        if self.lazy and self.measure != "mni":
            raise MiningError("lazy evaluation is only defined for the MNI measure")
        if self.kind == "pattern":
            if self.pattern is None:
                raise MiningError("kind='pattern' requires a pattern")
            pattern = self.to_pattern()  # validates structure (labels, edges)
            if pattern.num_edges == 0:
                raise MiningError(
                    "a watched pattern must have at least one edge (edge "
                    "label pairs are what the dispatcher routes on)"
                )
        elif self.pattern is not None:
            raise MiningError("kind='threshold' does not take a pattern")
        if self.events is not None:
            unknown = [e for e in self.events if e not in EVENT_TYPES]
            if unknown:
                raise MiningError(
                    f"unknown event type(s) {unknown!r}; "
                    f"expected a subset of: {', '.join(EVENT_TYPES)}"
                )
            if not self.events:
                raise MiningError(
                    "events filter must not be empty (it would suppress "
                    "every event); omit it to receive all event types"
                )
        if self.delivery not in DELIVERY_MODES:
            raise MiningError(
                f"unknown delivery mode {self.delivery!r}; "
                f"expected one of: {', '.join(DELIVERY_MODES)}"
            )

    # ------------------------------------------------------------------
    # canonical serialization (wire form; mirrors MiningSpec)
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """All fields in canonical (declaration) order, JSON-ready."""
        payload: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "pattern" and value is not None:
                value = {
                    "nodes": [list(node) for node in value[0]],
                    "edges": [list(edge) for edge in value[1]],
                }
            elif f.name == "events" and value is not None:
                value = list(value)
            payload[f.name] = value
        return payload

    def to_json(self) -> str:
        """The canonical wire form — one string per distinct request."""
        return json.dumps(self.as_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "StandingSpec":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise MiningError(f"malformed StandingSpec JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise MiningError(
                f"StandingSpec JSON must be an object, got {type(payload).__name__}"
            )
        return cls.from_kwargs(**payload)

    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "StandingSpec":
        """Build a spec from loose kwargs (field names or CLI aliases)."""
        known = {f.name for f in fields(cls)}
        aliases = {k: v for k, v in _ALIASES.items() if v in known}
        resolved: Dict[str, Any] = {}
        for name, value in kwargs.items():
            target = aliases.get(name, name)
            if target not in known:
                raise MiningError(
                    f"unknown standing-query parameter {name!r}; expected "
                    f"one of: {', '.join(sorted(known | set(aliases)))}"
                )
            if target in resolved:
                raise MiningError(
                    f"standing-query parameter {target!r} given twice "
                    f"(aliases count as the same parameter)"
                )
            resolved[target] = value
        if resolved.get("pattern") is not None:
            resolved["pattern"] = _normalize_pattern(resolved["pattern"])
            resolved.setdefault("kind", "pattern")
        if resolved.get("events") is not None:
            requested = resolved["events"]
            if isinstance(requested, str):
                requested = [requested]
            if not isinstance(requested, (list, tuple)):
                raise MiningError(
                    "events must be an event type or a list of them, got "
                    f"{type(requested).__name__} {requested!r}"
                )
            requested = list(requested)
            unknown = [e for e in requested if e not in EVENT_TYPES]
            if unknown:
                # Validate *before* canonicalizing: the intersection below
                # would silently drop typos, turning a misspelt filter into
                # one that suppresses every event.
                raise MiningError(
                    f"unknown event type(s) {unknown!r}; "
                    f"expected a subset of: {', '.join(EVENT_TYPES)}"
                )
            # Canonical order + dedup so equal filters serialize equally.
            resolved["events"] = tuple(e for e in EVENT_TYPES if e in set(requested))
        return cls(**resolved)

    def replace(self, **changes: Any) -> "StandingSpec":
        if not changes:
            return self
        return _dataclass_replace(self, **changes)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def to_pattern(self) -> Pattern:
        """The watched :class:`Pattern` (``kind='pattern'`` only)."""
        if self.pattern is None:
            raise MiningError("only kind='pattern' specs carry a pattern")
        nodes, edges = self.pattern
        return Pattern.from_edges(nodes, edges)

    def mining_spec(self) -> MiningSpec:
        """The one-shot :class:`MiningSpec` a threshold query watches."""
        return MiningSpec(
            measure=self.measure,
            min_support=self.min_support,
            max_pattern_nodes=self.max_pattern_nodes,
            max_pattern_edges=self.max_pattern_edges,
            lazy=self.lazy,
        )

    def footprint(self) -> Optional[FrozenSet[Tuple]]:
        """The static label-pair footprint (``None`` for threshold kind,
        whose watched pair set tracks the current frequent patterns)."""
        if self.kind != "pattern":
            return None
        return pattern_footprint(self.to_pattern())

    def cache_key(self) -> str:
        """Canonical form of the result-defining subset.

        Threshold queries answer exactly the derived mining question, so
        they share :meth:`MiningSpec.cache_key` — a subscription can be
        served from a cache entry a plain ``mine`` request (or the
        writer's maintained refresh) populated, and vice versa.
        """
        if self.kind == "threshold":
            return self.mining_spec().cache_key()
        return json.dumps(
            {
                "standing": "pattern",
                "certificate": canonical_certificate(self.to_pattern().graph),
                "measure": self.measure,
                "min_support": self.min_support,
                "lazy": self.lazy,
            },
            separators=(",", ":"),
        )


class AnswerEntry(NamedTuple):
    """One pattern's standing answer: support, occurrences, membership.

    ``num_occurrences`` is ``-1`` when occurrences were never enumerated
    (lazy evaluation) — matching :class:`FrequentPattern` exactly so
    answers diff byte-for-byte against one-shot mining results.
    """

    support: float
    num_occurrences: int
    frequent: bool


@dataclass(frozen=True)
class AnswerEvent:
    """One typed answer change, stamped with version + per-sub sequence.

    The event carries the *full new entry* (``support`` /
    ``num_occurrences`` / ``frequent``, all ``None`` for a removal), so
    replaying events is a pure state transition: no event ever needs its
    predecessor to be interpreted.  ``delta`` is the occurrence-count
    change when both sides were enumerated, else ``0``.
    """

    type: str
    certificate: str
    version: int
    seq: int
    support: Optional[float]
    num_occurrences: Optional[int]
    frequent: Optional[bool]
    delta: int = 0

    def payload(self) -> Dict[str, Any]:
        """The canonical JSON shape (also the notify-line event form)."""
        return {
            "type": self.type,
            "certificate": self.certificate,
            "version": self.version,
            "seq": self.seq,
            "support": self.support,
            "num_occurrences": self.num_occurrences,
            "frequent": self.frequent,
            "delta": self.delta,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "AnswerEvent":
        return cls(
            type=payload["type"],
            certificate=payload["certificate"],
            version=payload["version"],
            seq=payload["seq"],
            support=payload["support"],
            num_occurrences=payload["num_occurrences"],
            frequent=payload["frequent"],
            delta=payload.get("delta", 0),
        )


Answer = Dict[str, AnswerEntry]


def answer_from_result(result: MiningResult) -> Answer:
    """A one-shot mining result as a standing answer (threshold kind)."""
    return {
        fp.certificate: AnswerEntry(fp.support, fp.num_occurrences, True)
        for fp in result.frequent
    }


def evaluate_standing(
    spec: StandingSpec,
    graph: LabeledGraph,
    *,
    result: Optional[MiningResult] = None,
    index: Any = None,
) -> Answer:
    """One-shot evaluation of a standing query against ``graph``.

    For threshold kind this is (or adopts, via ``result``) a full mine;
    for pattern kind it evaluates just the watched motif — ``index`` may
    pass a pre-patched :class:`GraphIndex` to skip index (re)builds.
    """
    if spec.kind == "threshold":
        if result is None:
            from .miner import mine_frequent_patterns

            result = mine_frequent_patterns(graph, spec=spec.mining_spec())
        return answer_from_result(result)
    from .parallel import evaluate_support

    pattern = spec.to_pattern()
    support, num_occurrences = evaluate_support(
        pattern,
        graph,
        spec.measure,
        lazy=spec.lazy,
        lazy_cap=max(1, math.ceil(spec.min_support)),
        max_occurrences=None,
        index_arg=index,
    )
    certificate = canonical_certificate(pattern.graph)
    return {
        certificate: AnswerEntry(support, num_occurrences, support >= spec.min_support)
    }


def diff_answer(
    old: Mapping[str, AnswerEntry],
    new: Mapping[str, AnswerEntry],
    *,
    version: int,
    seq_start: int = 0,
    event_filter: Optional[Sequence[str]] = None,
) -> Tuple[List[AnswerEvent], int]:
    """The typed events turning ``old`` into ``new``; ``(events, next_seq)``.

    At most one event per certificate per version, in sorted-certificate
    order, typed by priority: membership change (appeared / vanished /
    ``frequent`` flip) beats occurrence change beats support-only change.
    With ``event_filter`` set, suppressed events are never emitted (and
    never consume a sequence number) — exact reconstruction therefore
    requires an unfiltered subscription.
    """
    events: List[AnswerEvent] = []
    seq = seq_start
    allowed = None if event_filter is None else set(event_filter)
    for certificate in sorted(set(old) | set(new)):
        before = old.get(certificate)
        after = new.get(certificate)
        if before == after:
            continue
        delta = 0
        if (
            before is not None
            and after is not None
            and before.num_occurrences >= 0
            and after.num_occurrences >= 0
        ):
            delta = after.num_occurrences - before.num_occurrences
        if after is None:
            kind = "became_infrequent"
        elif before is None or after.frequent != before.frequent:
            kind = "became_frequent" if after.frequent else "became_infrequent"
        elif delta:
            kind = "occurrences_gained" if delta > 0 else "occurrences_lost"
        else:
            kind = "support_changed"
        if allowed is not None and kind not in allowed:
            continue
        events.append(
            AnswerEvent(
                type=kind,
                certificate=certificate,
                version=version,
                seq=seq,
                support=None if after is None else after.support,
                num_occurrences=None if after is None else after.num_occurrences,
                frequent=None if after is None else after.frequent,
                delta=delta,
            )
        )
        seq += 1
    return events, seq


def replay_answer(
    answer: Mapping[str, AnswerEntry], events: Sequence[AnswerEvent]
) -> Answer:
    """Apply ``events`` to a copy of ``answer`` (the reconstruction rule).

    Because every event carries the full new entry, replay is
    type-independent: ``support is None`` removes the certificate,
    anything else overwrites its entry.
    """
    state: Answer = dict(answer)
    for event in events:
        if event.support is None:
            state.pop(event.certificate, None)
        else:
            state[event.certificate] = AnswerEntry(
                event.support, event.num_occurrences, bool(event.frequent)
            )
    return state
