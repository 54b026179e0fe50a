"""The newline-delimited JSON request protocol of ``repro serve``.

One request per line, one JSON-object response per line, over
stdin/stdout or a TCP connection — the same :func:`handle_request`
either way, and every operation lands on the same in-process
:class:`~repro.service.GraphService` the library exposes.

Requests are objects with an ``op`` field; an optional ``id`` field is
echoed back for request/response correlation over pipelined or
concurrent connections::

    {"op": "ping"}
    {"op": "version"}
    {"op": "update", "updates": [["v", 9, "A"], ["e", 9, 3], ["de", 1, 2]]}
    {"op": "mine", "spec": {"min_support": 3}, "version": 7}
    {"op": "subscribe", "spec": {"kind": "threshold", "min_support": 3}}
    {"op": "poll_events", "subscription": "s1", "max": 100}
    {"op": "unsubscribe", "subscription": "s1"}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "trace", "trace_id": "t000001"}
    {"op": "shutdown"}

**Protocol versioning.**  Every response carries ``"v": 1``
(:data:`PROTOCOL_VERSION`).  Requests may omit ``"v"`` (treated as 1) or
pin it; an unsupported pin is refused with the ``unsupported_protocol``
error code instead of being half-understood.  The compatibility rule
(documented in ``docs/architecture.md``): servers never remove or
re-type existing response fields within a protocol version — clients
must tolerate *added* fields, and breaking changes bump the version.

Responses carry ``"ok": true`` plus op-specific fields, or
``"ok": false`` with ``error``/``type``/``code`` on failure — ``code``
is a machine-readable member of :class:`ErrorCode`, stable across
message-text rewording, for thin clients to branch on.  Mining responses
serialize results through :func:`result_payload`, which deliberately
excludes run statistics: the payload holds exactly the result-defining
bytes (certificates, supports, occurrence counts), so a service-mediated
response can be diffed byte-for-byte against a one-shot CLI ``mine`` of
the same version — stats describe how much *work* a strategy did, which
legitimately differs between maintained and from-scratch runs.
"""

from __future__ import annotations

import enum
import json
from typing import Any, Dict, List, Optional, Tuple

from ..errors import BudgetExceededError, ReproError, ServiceError
from ..mining.dynamic import GraphUpdate
from ..mining.results import MiningResult
from ..mining.spec import MiningSpec
from ..mining.standing import Answer, AnswerEvent, StandingSpec
from ..obs import trace as _trace
from .service import GraphService

#: The protocol version this server speaks (stamped on every response).
PROTOCOL_VERSION = 1

#: Required operand count per update kind (the record itself included).
_UPDATE_ARITY = {"v": 3, "e": 3, "de": 3, "dv": 2}


class ErrorCode(str, enum.Enum):
    """Machine-readable error codes shared by server and thin clients.

    The ``error`` message text may be reworded freely; the ``code`` is
    the stable contract clients branch on.
    """

    BAD_REQUEST = "bad_request"
    BUDGET_EXCEEDED = "budget_exceeded"
    UNKNOWN_OP = "unknown_op"
    UNKNOWN_SUBSCRIPTION = "unknown_subscription"
    UNSUPPORTED_PROTOCOL = "unsupported_protocol"


def _error(code: ErrorCode, message: str) -> ServiceError:
    exc = ServiceError(message)
    exc.code = code
    return exc


def result_payload(result: MiningResult) -> Dict[str, Any]:
    """The canonical, stats-free JSON shape of a mining result."""
    return {
        "measure": result.measure,
        "min_support": result.min_support,
        "num_frequent": len(result.frequent),
        "patterns": [
            {
                "certificate": fp.certificate,
                "support": fp.support,
                "num_occurrences": fp.num_occurrences,
                "num_nodes": fp.num_nodes,
                "num_edges": fp.num_edges,
            }
            for fp in result.frequent
        ],
    }


def result_bytes(result: MiningResult) -> str:
    """Canonical serialized form — equal strings iff equal results."""
    return json.dumps(result_payload(result), sort_keys=True, separators=(",", ":"))


def parse_updates(records: Any) -> List[GraphUpdate]:
    """JSON arrays → the update tuples :func:`apply_update` consumes."""
    if not isinstance(records, list):
        raise ServiceError("'updates' must be an array of update records")
    updates: List[GraphUpdate] = []
    for record in records:
        if not isinstance(record, list) or not record:
            raise ServiceError(f"malformed update record {record!r}")
        kind = record[0]
        arity = _UPDATE_ARITY.get(kind)
        if arity is None:
            raise ServiceError(
                f"unknown update kind {kind!r} (expected 'v', 'e', 'de' or 'dv')"
            )
        if len(record) != arity:
            raise ServiceError(f"update record {record!r} must have {arity} elements")
        updates.append(tuple(record))
    return updates


def handle_request(
    service: GraphService, line: str, session=None
) -> Tuple[Dict[str, Any], bool]:
    """Answer one protocol line; returns ``(response, shutdown_requested)``.

    ``session`` (a :class:`~repro.service.server.ClientSession`, when the
    transport provides one) scopes subscriptions to the connection: it
    owns them for disconnect GC and carries the push-delivery writer.
    """
    request_id = None
    try:
        try:
            request = json.loads(line)
        except ValueError as exc:
            raise ServiceError(f"malformed request JSON: {exc}") from exc
        if not isinstance(request, dict):
            raise ServiceError(
                f"request must be a JSON object, got {type(request).__name__}"
            )
        request_id = request.get("id")
        proto = request.get("v")
        if proto is not None and proto != PROTOCOL_VERSION:
            raise _error(
                ErrorCode.UNSUPPORTED_PROTOCOL,
                f"unsupported protocol version {proto!r} "
                f"(this server speaks v{PROTOCOL_VERSION})",
            )
        op = request.get("op")
        if op == "ping":
            response: Dict[str, Any] = {"ok": True, "op": "ping"}
        elif op == "version":
            with service.pin() as snap:
                response = {
                    "ok": True,
                    "op": "version",
                    "version": snap.version,
                    "num_vertices": snap.graph.num_vertices,
                    "num_edges": snap.graph.num_edges,
                }
        elif op == "update":
            info = service.apply_updates(parse_updates(request.get("updates")))
            response = {
                "ok": True,
                "op": "update",
                "version": info.version,
                "applied": info.applied,
                "expired": info.expired,
                "num_vertices": info.num_vertices,
                "num_edges": info.num_edges,
            }
        elif op == "mine":
            response = _handle_mine(service, request)
        elif op == "subscribe":
            response = _handle_subscribe(service, request, session)
        elif op == "unsubscribe":
            response = _handle_unsubscribe(service, request, session)
        elif op == "poll_events":
            response = _handle_poll_events(service, request)
        elif op == "stats":
            response = {"ok": True, "op": "stats", **service.stats()}
        elif op == "metrics":
            response = {
                "ok": True,
                "op": "metrics",
                "metrics": service.metrics_snapshot(),
            }
        elif op == "trace":
            response = _handle_trace(request)
        elif op == "shutdown":
            response = {"ok": True, "op": "shutdown", "v": PROTOCOL_VERSION}
            if request_id is not None:
                response["id"] = request_id
            return (response, True)
        else:
            raise _error(ErrorCode.UNKNOWN_OP, f"unknown op {op!r}")
    except ReproError as exc:
        if isinstance(exc, BudgetExceededError):
            # A valid request whose exact solve outgrew its work budget.
            code = ErrorCode.BUDGET_EXCEEDED
        else:
            code = getattr(exc, "code", ErrorCode.BAD_REQUEST)
        response = {
            "ok": False,
            "error": str(exc),
            "type": type(exc).__name__,
            "code": code.value,
        }
    response["v"] = PROTOCOL_VERSION
    if request_id is not None:
        response["id"] = request_id
    return response, False


def _handle_mine(service: GraphService, request: Dict[str, Any]) -> Dict[str, Any]:
    spec_fields = request.get("spec", {})
    if not isinstance(spec_fields, dict):
        raise ServiceError("'spec' must be a JSON object of MiningSpec fields")
    spec: Optional[MiningSpec] = (
        MiningSpec.from_kwargs(**spec_fields) if spec_fields else None
    )
    version = request.get("version")
    if version is not None and not isinstance(version, int):
        raise ServiceError(f"'version' must be an integer, got {version!r}")
    # Hold the pin across the cache peek *and* the mine so a concurrent
    # version advance cannot invalidate the "cached" claim we report.
    with service.pin(version) as snap:
        effective = spec if spec is not None else service.maintain_spec
        cached = service.cache.peek(snap.version, effective.cache_key()) is not None
        with _trace.span(
            "service.mine", version=snap.version, cached=cached
        ) as mine_span:
            result = service.mine(spec, snapshot=snap)
        trace_id = getattr(mine_span, "trace_id", None)
    response = {
        "ok": True,
        "op": "mine",
        "version": snap.version,
        "cached": cached,
        "result": result_payload(result),
    }
    if trace_id is not None:
        # Echoed so the span tree is retrievable via {"op": "trace", ...}.
        response["trace_id"] = trace_id
    return response


def answer_payload(answer: Answer) -> List[Dict[str, Any]]:
    """The canonical JSON shape of a standing answer (certificate-sorted)."""
    return [
        {
            "certificate": certificate,
            "support": entry.support,
            "num_occurrences": entry.num_occurrences,
            "frequent": entry.frequent,
        }
        for certificate, entry in sorted(answer.items())
    ]


def notify_line(sub, version: int, events: List[AnswerEvent]) -> Dict[str, Any]:
    """The server-push notification frame for one dispatched batch."""
    return {
        "ok": True,
        "event": "notify",
        "v": PROTOCOL_VERSION,
        "subscription": sub.id,
        "version": version,
        "events": [event.payload() for event in events],
    }


def _handle_subscribe(
    service: GraphService, request: Dict[str, Any], session
) -> Dict[str, Any]:
    spec_fields = request.get("spec", {})
    if not isinstance(spec_fields, dict):
        raise ServiceError("'spec' must be a JSON object of StandingSpec fields")
    spec = StandingSpec.from_kwargs(**spec_fields)
    push = None
    owner = session.owner_id if session is not None else None
    if spec.delivery == "push":
        if session is None or not session.can_push:
            raise _error(
                ErrorCode.BAD_REQUEST,
                "push delivery requires a connection-bound session "
                "(subscribe over TCP, or use delivery='poll')",
            )
        push = session.notify
    sub = service.subscribe(spec, push=push, owner=owner)
    if session is not None:
        session.track(sub.id)
    return {
        "ok": True,
        "op": "subscribe",
        "subscription": sub.id,
        "version": sub.version,
        "kind": spec.kind,
        "answer": answer_payload(sub.answer_snapshot()),
    }


def _handle_unsubscribe(
    service: GraphService, request: Dict[str, Any], session
) -> Dict[str, Any]:
    sub_id = request.get("subscription")
    if not isinstance(sub_id, str):
        raise ServiceError(f"'subscription' must be a string id, got {sub_id!r}")
    if not service.unsubscribe(sub_id):
        raise _error(ErrorCode.UNKNOWN_SUBSCRIPTION, f"unknown subscription {sub_id!r}")
    if session is not None:
        session.untrack(sub_id)
    return {"ok": True, "op": "unsubscribe", "subscription": sub_id}


def _handle_poll_events(service: GraphService, request: Dict[str, Any]):
    sub_id = request.get("subscription")
    if not isinstance(sub_id, str):
        raise ServiceError(f"'subscription' must be a string id, got {sub_id!r}")
    sub = service.subscriptions.get(sub_id)
    if sub is None:
        raise _error(ErrorCode.UNKNOWN_SUBSCRIPTION, f"unknown subscription {sub_id!r}")
    max_events = request.get("max")
    if max_events is not None and (not isinstance(max_events, int) or max_events < 0):
        raise ServiceError(f"'max' must be a non-negative integer, got {max_events!r}")
    events = sub.poll(max_events)
    return {
        "ok": True,
        "op": "poll_events",
        "subscription": sub_id,
        "version": sub.version,
        "events": [event.payload() for event in events],
        "pending": sub.pending,
        "dropped": sub.dropped,
    }


def _handle_trace(request: Dict[str, Any]) -> Dict[str, Any]:
    trace_id = request.get("trace_id")
    if not isinstance(trace_id, str):
        raise ServiceError(f"'trace_id' must be a string, got {trace_id!r}")
    records = _trace.get_trace(trace_id)
    if not records:
        raise ServiceError(
            f"unknown trace {trace_id!r} (traces are kept for the last "
            "requests only, and only while tracing is enabled)"
        )
    return {
        "ok": True,
        "op": "trace",
        "trace_id": trace_id,
        "spans": [record.payload() for record in records],
    }
