"""``MiningSpec`` — the one request object every mining entry point accepts.

Every mining entry point — :class:`FrequentSubgraphMiner`,
:class:`DynamicMiner`, :func:`mine_frequent_patterns`,
:func:`mine_stream`, the CLI and the service protocol — is configured by
one frozen, validated, JSON-round-trippable :class:`MiningSpec` passed
as ``spec=`` (``None`` means :data:`DEFAULT_SPEC`).  Callers that vary
one knob derive a spec with :meth:`MiningSpec.replace`:

* the **field defaults here are the single source of truth** — the CLI
  flag defaults are derived from them (``tests/test_mining_spec.py``
  pins the agreement);
* ``__post_init__`` type-checks every field before any range check, so
  a malformed wire spec (``"min_support": "3"``, ``"lazy": "yes"``)
  fails with :class:`~repro.errors.MiningError` — the service maps it
  to ``bad_request`` — and ``min_support`` is normalised to ``float``
  so ``3`` and ``3.0`` are one request;
* :meth:`MiningSpec.to_json` serializes in canonical field order, so a
  spec has exactly one wire form;
* :meth:`MiningSpec.cache_key` is the canonical form of the
  **result-affecting subset** of fields — execution-strategy knobs
  (``use_index``, ``workers``, ``shards``, ``max_resident``, stream
  batching) are excluded because the equivalence suites pin that they
  never change the mined bytes.  The service layer's
  :class:`~repro.service.ResultCache` keys on ``(graph version,
  cache_key)``, so a brute-force request can be served from a cache
  entry an indexed request populated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace as _dataclass_replace
from typing import Any, Dict, Optional, Tuple

from ..errors import MiningError
from ..measures.base import measure_info

#: Stream maintenance strategies accepted by :func:`mine_stream`.
STREAM_MODES = ("delta", "rebuild", "brute")

#: Fields whose value can change the mined *result* (certificates,
#: supports, occurrence counts).  Everything else is execution strategy:
#: the equivalence suites pin indexed == brute, sharded == flat,
#: pooled == serial, bounded == unbounded shard views byte-identical, so
#: those fields are deliberately not part of the result cache key.
RESULT_FIELDS = (
    "measure",
    "min_support",
    "max_pattern_nodes",
    "max_pattern_edges",
    "max_occurrences",
    "lazy",
)

#: CLI spellings accepted by :meth:`MiningSpec.from_kwargs`.
_ALIASES = {
    "max_nodes": "max_pattern_nodes",
    "max_edges": "max_pattern_edges",
    "partition": "partition_method",
}

#: ``(type, optional)`` per field; ``float`` admits ints, ``int`` admits
#: no bools (``True`` is an ``int`` to Python, never a shard count).
FieldTypes = Dict[str, Tuple[type, bool]]


def check_field_types(spec: Any, types: FieldTypes) -> None:
    """Raise :class:`MiningError` for the first field of the wrong type.

    Runs before any range check, so a malformed wire value (a string
    threshold, a fractional worker count, a ``null`` cap) surfaces as a
    typed ``bad_request`` rather than a ``TypeError`` from a comparison.
    """
    for name, (kind, optional) in types.items():
        value = getattr(spec, name)
        if value is None and optional:
            continue
        if kind is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif kind is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, kind)
        if not ok:
            expected = {float: "a number", int: "an integer", bool: "a boolean"}.get(
                kind, f"a {kind.__name__}"
            )
            if optional:
                expected += " or null"
            raise MiningError(
                f"{name} must be {expected}, got {type(value).__name__} {value!r}"
            )


_MINING_FIELD_TYPES: FieldTypes = {
    "measure": (str, False),
    "min_support": (float, False),
    "max_pattern_nodes": (int, False),
    "max_pattern_edges": (int, False),
    "max_occurrences": (int, True),
    "allow_non_anti_monotonic": (bool, False),
    "lazy": (bool, False),
    "use_index": (bool, False),
    "workers": (int, False),
    "shards": (int, False),
    "partition_method": (str, False),
    "max_resident": (int, True),
    "window": (int, True),
    "batch_size": (int, False),
    "mode": (str, False),
}


@dataclass(frozen=True)
class MiningSpec:
    """One validated, canonical description of a mining request.

    Structural fields (``measure`` .. ``lazy``) decide *what* is mined;
    strategy fields (``use_index`` .. ``max_resident``) decide *how*
    — results are byte-identical across strategies (``max_resident``
    bounds how many shards hold views in a serial sharded session's
    in-process runner; evicted views ship whole again, never spilled);
    stream fields (``window``, ``batch_size``, ``mode``) only apply to
    update-stream replays and are ignored by one-shot mining.
    """

    measure: str = "mni"
    min_support: float = 2.0
    max_pattern_nodes: int = 5
    max_pattern_edges: int = 6
    max_occurrences: Optional[int] = None
    allow_non_anti_monotonic: bool = False
    lazy: bool = False
    use_index: bool = True
    workers: int = 1
    shards: int = 1
    partition_method: str = "hash"
    max_resident: Optional[int] = None
    window: Optional[int] = None
    batch_size: int = 1
    mode: str = "delta"

    def __post_init__(self) -> None:
        check_field_types(self, _MINING_FIELD_TYPES)
        # One request, one key: 3 and 3.0 must share the cache entry.
        object.__setattr__(self, "min_support", float(self.min_support))
        # Raises MeasureError with the available-measure list for typos.
        measure_info(self.measure)
        if self.min_support <= 0:
            raise MiningError("min_support must be positive")
        if self.max_pattern_nodes < 2:
            raise MiningError(
                f"max_pattern_nodes must be >= 2 (patterns have at least one "
                f"edge), got {self.max_pattern_nodes}"
            )
        if self.max_pattern_edges < 1:
            raise MiningError(
                f"max_pattern_edges must be >= 1, got {self.max_pattern_edges}"
            )
        if self.max_occurrences is not None and self.max_occurrences < 1:
            raise MiningError(
                f"max_occurrences must be >= 1 (or None), got {self.max_occurrences}"
            )
        if self.lazy and self.measure != "mni":
            raise MiningError("lazy evaluation is only defined for the MNI measure")
        if self.workers < 1:
            raise MiningError(f"workers must be >= 1, got {self.workers}")
        if self.shards < 1:
            raise MiningError(f"shards must be >= 1, got {self.shards}")
        if self.shards > 1:
            from ..partition.partitioner import PARTITION_METHODS

            if self.partition_method not in PARTITION_METHODS:
                raise MiningError(
                    f"unknown partition method {self.partition_method!r}; "
                    f"available: {', '.join(PARTITION_METHODS)}"
                )
        if self.max_resident is not None:
            if self.shards <= 1:
                raise MiningError(
                    "max_resident bounds resident *shards*; it requires "
                    f"shards > 1 (got shards={self.shards})"
                )
            if self.max_resident < 1:
                raise MiningError(f"max_resident must be >= 1, got {self.max_resident}")
        if self.window is not None and self.window < 1:
            raise MiningError("window must be >= 1 (or None for no expiry)")
        if self.batch_size < 1:
            raise MiningError("batch_size must be >= 1")
        if self.mode not in STREAM_MODES:
            raise MiningError(f"unknown mine-stream mode {self.mode!r}")

    # ------------------------------------------------------------------
    # canonical serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """All fields in canonical (declaration) order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        """The canonical wire form: declaration-ordered keys, compact.

        This string is the spec's identity — two specs are the same
        request iff their ``to_json`` outputs are equal.
        """
        return json.dumps(self.as_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "MiningSpec":
        """Parse (and validate) a spec from its JSON form."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise MiningError(f"malformed MiningSpec JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise MiningError(
                f"MiningSpec JSON must be an object, got {type(payload).__name__}"
            )
        return cls.from_kwargs(**payload)

    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "MiningSpec":
        """Build a spec from loose kwargs (field names or CLI aliases)."""
        known = {f.name for f in fields(cls)}
        resolved: Dict[str, Any] = {}
        for name, value in kwargs.items():
            target = _ALIASES.get(name, name)
            if target not in known:
                raise MiningError(
                    f"unknown mining parameter {name!r}; expected one of: "
                    f"{', '.join(sorted(known | set(_ALIASES)))}"
                )
            if target in resolved:
                raise MiningError(
                    f"mining parameter {target!r} given twice "
                    f"(aliases count as the same parameter)"
                )
            resolved[target] = value
        return cls(**resolved)

    def replace(self, **changes: Any) -> "MiningSpec":
        """A copy with ``changes`` applied (re-validated)."""
        if not changes:
            return self
        return _dataclass_replace(self, **changes)

    def cache_key(self) -> str:
        """Canonical form of the result-affecting fields (the cache key).

        Strategy fields are excluded on purpose: indexed/brute,
        sharded/flat, pooled/serial and bounded/unbounded runs are pinned
        byte-identical by the equivalence suites, so caching their
        results under one key is sound — and turns "same question,
        different execution plan" into a cache hit.
        """
        return json.dumps(
            {name: getattr(self, name) for name in RESULT_FIELDS},
            separators=(",", ":"),
        )


#: The single source of truth for every mining default (library + CLI).
DEFAULT_SPEC = MiningSpec()



def require_spec(spec: Optional[MiningSpec]) -> MiningSpec:
    """``spec`` itself, :data:`DEFAULT_SPEC` for ``None``, else an error.

    The guard every entry point runs on its ``spec`` argument: a stray
    positional value (``mine_frequent_patterns(g, "mi")``) fails loudly
    instead of reaching attribute access.
    """
    if spec is None:
        return DEFAULT_SPEC
    if not isinstance(spec, MiningSpec):
        raise MiningError(
            f"spec must be a MiningSpec, got {type(spec).__name__} "
            "(build one with MiningSpec.from_kwargs(...))"
        )
    return spec
