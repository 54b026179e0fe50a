"""The benchmark's workloads: inputs, set-up, timed windows, output checks.

Each workload writes its seeded inputs (:mod:`gen`) into the work
directory, sets the program up from the generated ``.lg`` file, drives
it for a timed window, and afterwards checks what the program answered
against an independent one-shot mine.  Checks run outside the timed
windows.  Every protocol request, every mine and every comparison is an
attempted operation; a refused request (``"ok": false``), a raised
error or a mismatch is a failed one.

* ``cold_mine``: one eager MI mine (min_support 4, <= 4 nodes/edges) of
  the three-community dataset, loaded fresh from the ``.lg`` file each
  time so the index build is paid.  Check: equal to the brute
  ``use_index=False`` mine by certificate, support and occurrence count.
* ``serve_mixed``: a flat :class:`GraphService` maintaining the eager
  MNI stream spec, with one threshold poll subscription, driven through
  ``handle_request`` (the ``repro serve`` request path without the
  socket).  An open-loop thread sends a 6-op churn batch every
  ``1/RATE`` s, timed from when it was due; a closed-loop thread cycles
  a maintained-spec mine, an ad-hoc lazy-MNI mine and ``poll_events``.
  Check: sampled responses equal one-shot mines of a replayed copy at
  the same version, and the replayed subscription events equal the
  one-shot answer at the last version.
* ``sharded_stream``: the same surface with the maintained spec sharded
  (4 shards, label partition), pooled (2 resident workers) and paged
  (2 resident views), one closed-loop client sending 4-op churn
  batches and no readers.  Check: the final maintained answer equals a
  flat one-shot mine of the replayed graph.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import gen

#: The stream search every tab9/tab10 gate mines with (``STREAM_PARAMS``).
STREAM = {"measure": "mni", "min_support": 3, "max_pattern_nodes": 4,
          "max_pattern_edges": 4}
LAZY = dict(STREAM, lazy=True)
SHARDED = dict(STREAM, shards=4, partition_method="label", workers=2, max_resident=2)
COLD = {"measure": "mi", "min_support": 4, "max_pattern_nodes": 4,
        "max_pattern_edges": 4}

READER_THREAD = "perfbench-reader"
UPDATER_THREAD = "perfbench-updates"


def result_key(result) -> Tuple:
    """A mining result as comparable (certificate, support, occurrences) rows."""
    return tuple((fp.certificate, fp.support, fp.num_occurrences) for fp in result.frequent)


def payload_key(payload: dict) -> Tuple:
    """The same rows from a protocol ``result`` payload."""
    return tuple(
        (p["certificate"], p["support"], p["num_occurrences"]) for p in payload["patterns"]
    )


def replay_answer(answer: List[dict], events: List[dict]) -> Dict[str, tuple]:
    """Apply subscription event payloads to a subscribe-time answer.

    Every event carries the full new entry, and a ``support`` of ``None``
    removes the pattern (the protocol's replay rule).
    """
    state = {
        entry["certificate"]: (entry["support"], entry["num_occurrences"], entry["frequent"])
        for entry in answer
    }
    for event in events:
        if event["support"] is None:
            state.pop(event["certificate"], None)
        else:
            state[event["certificate"]] = (
                event["support"], event["num_occurrences"], bool(event["frequent"])
            )
    return state


def apply_records(graph, batch: List[list]) -> None:
    """Apply protocol update records to a replay copy, through the graph API."""
    for record in batch:
        kind = record[0]
        if kind == "v":
            graph.add_vertex(record[1], record[2])
        elif kind == "e":
            graph.add_edge(record[1], record[2])
        elif kind == "de":
            graph.remove_edge(record[1], record[2])
        else:
            graph.remove_vertex(record[1])


class Window:
    """What one timed window measured."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.ops: List[float] = []  # the workload's driven op, seconds
        self.op_versions: List[int] = []  # version each update produced
        self.late: List[float] = []  # open loop: send time minus due time
        self.reads = 0
        self.miss: List[float] = []  # lazy-MNI mines the cache had not seen
        self.maintained_misses = 0  # maintained-spec mines that were not hits


class Workload:
    """Shared failure accounting; subclasses define the four phases."""

    name = ""
    #: Set-ups per run (``setup_s`` is their median), split between
    #: before and after the timed window.
    setup_repeats = 15

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(what)
        return ok

    def expect(self, response: dict, what: str) -> bool:
        ok = bool(response.get("ok"))
        return self.record(ok, f"{what}: {response.get('error', response)}" if not ok else what)

    def guarded(self, body, what: str):
        """Thread body wrapper: an exception is a failed op, never a hang."""

        def run() -> None:
            try:
                body()
            except Exception:  # noqa: BLE001 - reported as a failed op
                self.record(False, f"{what} raised:\n{traceback.format_exc()}")

        return run

    def setup(self):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def window(self, state, seconds: float) -> Window:
        raise NotImplementedError

    def check(self, state) -> None:
        raise NotImplementedError


class ColdMine(Workload):
    name = "cold_mine"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.mining.spec import MiningSpec

        self.path = workdir / "medium.lg"
        self.path.write_text(gen.medium_graph(seed).to_lg("medium"))
        self.spec = MiningSpec(**COLD)
        self.first: Optional[Tuple] = None

    def setup(self):
        from repro.graph.io import load_graph

        return load_graph(self.path)

    def window(self, state, seconds: float) -> Window:
        from repro.graph.io import load_graph
        from repro.mining.miner import mine_frequent_patterns

        window = Window()
        start = perf_counter()
        deadline = start + seconds
        while True:
            began = perf_counter()
            result = mine_frequent_patterns(load_graph(self.path), spec=self.spec)
            window.ops.append(perf_counter() - began)
            key = result_key(result)
            if self.first is None:
                self.first = key
            self.record(key == self.first, "cold mine result differs from the first")
            if perf_counter() + window.ops[-1] > deadline:
                break  # the next mine would end past the window
        window.seconds = perf_counter() - start
        return window

    def check(self, state) -> None:
        from repro.mining.miner import mine_frequent_patterns

        brute = mine_frequent_patterns(state, spec=self.spec.replace(use_index=False))
        self.record(
            result_key(brute) == self.first,
            "cold mine differs from the brute use_index=False mine",
        )


class _Served:
    """One set-up service: the service, its client session, its subscription."""

    def __init__(self, service, session) -> None:
        self.service = service
        self.session = session
        self.subscription: Optional[str] = None
        self.answer: List[dict] = []
        self.version0 = 0


class _ServiceWorkload(Workload):
    """A service workload: protocol calls, stream bookkeeping, replay."""

    maintain: dict = STREAM
    lg_name = ""

    def __init__(self, seed: int, workdir: Path, graph: gen.GraphSpec, churn) -> None:
        super().__init__(seed, workdir)
        self.path = workdir / f"{self.lg_name}.lg"
        self.path.write_text(graph.to_lg(self.lg_name))
        self.stream = churn.batches()
        self.sent: List[List[list]] = []  # batches sent, in order
        self.applied_at: Dict[int, int] = {}  # version -> batches applied
        self.samples: Dict[str, List[dict]] = {}  # spec name -> kept mine responses

    def call(self, state: _Served, request: dict) -> dict:
        """One protocol round trip: the request line in, the response line out."""
        from repro.service.protocol import handle_request

        response, _ = handle_request(state.service, json.dumps(request), state.session)
        state.session.send(response)  # the transport's encode
        return response

    def start_service(self) -> _Served:
        from repro.graph.io import load_graph
        from repro.mining.spec import MiningSpec
        from repro.service import ClientSession, GraphService

        service = GraphService(load_graph(self.path), maintain=MiningSpec(**self.maintain))
        state = _Served(service, ClientSession(service, write_line=lambda line: None))
        # An empty batch runs the maintained miner's first, full mine.
        response = self.call(state, {"op": "update", "updates": []})
        if self.expect(response, "initial update"):
            state.version0 = response["version"]
        return state

    def teardown(self, state: _Served) -> None:
        state.session.close()
        state.service.stop()

    def send_batch(self, state: _Served, window: Window, due: float) -> None:
        batch = next(self.stream)
        sent = perf_counter()
        response = self.call(state, {"op": "update", "updates": batch})
        done = perf_counter()
        self.sent.append(batch)
        if self.expect(response, "update"):
            self.applied_at[response["version"]] = len(self.sent)
            window.ops.append(done - due)
            window.late.append(sent - due)
            window.op_versions.append(response["version"])

    def keep_sample(self, spec_name: str, response: dict) -> None:
        """Keep the newest response per 20 versions (so always the newest)."""
        kept = self.samples.setdefault(spec_name, [])
        if kept and kept[-1]["version"] // 20 == response["version"] // 20:
            kept[-1] = response
        else:
            kept.append(response)

    def replayed(self, state: _Served, version: int):
        """A fresh copy of the graph at ``version``: the ``.lg`` file plus
        the sent batches up to the one that produced it (``None``, a
        failed check, when the copy cannot reach it)."""
        from repro.graph.io import load_graph

        count = {state.version0: 0, **self.applied_at}.get(version)
        if not self.record(count is not None, f"no update produced version {version}"):
            return None
        graph = load_graph(self.path)
        for batch in self.sent[:count]:
            apply_records(graph, batch)
        if not self.record(
            graph.mutation_version() == version,
            f"replay reached version {graph.mutation_version()}, not {version}",
        ):
            return None
        return graph

    def replay_check(self, state: _Served, wanted: Dict[int, List[Tuple[dict, dict]]]) -> None:
        """Compare answers against one-shot mines of replayed copies.

        ``wanted`` maps a version to ``(spec fields, protocol result)`` pairs.
        """
        from repro.mining.miner import mine_frequent_patterns
        from repro.mining.spec import MiningSpec

        for version in sorted(wanted):
            graph = self.replayed(state, version)
            if graph is None:
                continue
            for fields, payload in wanted[version]:
                one_shot = mine_frequent_patterns(graph, spec=MiningSpec(**fields))
                self.record(
                    payload_key(payload) == result_key(one_shot),
                    f"answer at version {version} for {fields} differs from a one-shot mine",
                )


class ServeMixed(_ServiceWorkload):
    name = "serve_mixed"
    lg_name = "stream"
    #: Open-loop update rate, batches per second.
    RATE = 10.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir, *gen.stream_graph(seed))
        self.events: List[dict] = []

    def setup(self) -> _Served:
        state = self.start_service()
        response = self.call(
            state,
            {"op": "subscribe",
             "spec": dict(STREAM, kind="threshold", delivery="poll")},
        )
        if self.expect(response, "subscribe"):
            state.subscription = response["subscription"]
            state.answer = response["answer"]
        return state

    def poll(self, state: _Served) -> dict:
        response = self.call(
            state, {"op": "poll_events", "subscription": state.subscription}
        )
        if response.get("ok"):
            self.events.extend(response["events"])
        return response

    def window(self, state: _Served, seconds: float) -> Window:
        window = Window()
        start = perf_counter()
        deadline = start + seconds

        def updates() -> None:
            k = 0
            while start + k / self.RATE < deadline:
                due = start + k / self.RATE
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.send_batch(state, window, due)
                k += 1

        requests = [
            ("maintained", {"op": "mine", "spec": STREAM}),
            ("lazy", {"op": "mine", "spec": LAZY}),
            ("poll", None),
        ]

        def reads() -> None:
            i = 0
            while perf_counter() < deadline:
                name, request = requests[i % len(requests)]
                i += 1
                began = perf_counter()
                if request is None:
                    response = self.poll(state)
                else:
                    response = self.call(state, request)
                elapsed = perf_counter() - began
                window.reads += 1
                if not self.expect(response, name):
                    continue
                if request is None:
                    continue
                self.keep_sample(name, response)
                if name == "lazy" and not response["cached"]:
                    window.miss.append(elapsed)
                elif name == "maintained" and not response["cached"]:
                    window.maintained_misses += 1

        threads = [
            threading.Thread(target=self.guarded(updates, "updates"), name=UPDATER_THREAD),
            threading.Thread(target=self.guarded(reads, "reads"), name=READER_THREAD),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            self.record(not thread.is_alive(), f"{thread.name} did not finish")
        window.seconds = perf_counter() - start
        return window

    def check(self, state: _Served) -> None:
        final = self.poll(state)  # drain what the last batches emitted
        if not self.expect(final, "final poll"):
            return
        seqs = [event["seq"] for event in self.events]
        self.record(seqs == list(range(len(seqs))), "subscription event seqs are not dense")
        # Four evenly spaced answers per spec, the first and newest included.
        wanted: Dict[int, List[Tuple[dict, dict]]] = {}
        for name, kept in self.samples.items():
            fields = STREAM if name == "maintained" else LAZY
            for i in sorted({i * (len(kept) - 1) // 3 for i in range(4)}):
                wanted.setdefault(kept[i]["version"], []).append((fields, kept[i]["result"]))
        self.replay_check(state, wanted)
        self._check_subscription(state, final["version"])

    def _check_subscription(self, state: _Served, version: int) -> None:
        from repro.mining.miner import mine_frequent_patterns
        from repro.mining.spec import MiningSpec

        graph = self.replayed(state, version)
        if graph is None:
            return
        one_shot = mine_frequent_patterns(graph, spec=MiningSpec(**STREAM))
        expected = {
            fp.certificate: (fp.support, fp.num_occurrences, True) for fp in one_shot.frequent
        }
        self.record(
            replay_answer(state.answer, self.events) == expected,
            f"replayed subscription events differ from a one-shot mine at version {version}",
        )


class ShardedStream(_ServiceWorkload):
    name = "sharded_stream"
    lg_name = "four_region"
    maintain = SHARDED

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir, *gen.four_region_graph(seed))

    def setup(self) -> _Served:
        return self.start_service()

    def window(self, state: _Served, seconds: float) -> Window:
        window = Window()
        start = perf_counter()
        deadline = start + seconds
        while perf_counter() < deadline:
            self.send_batch(state, window, perf_counter())
        window.seconds = perf_counter() - start
        return window

    def check(self, state: _Served) -> None:
        response = self.call(state, {"op": "mine", "spec": SHARDED})
        if not self.expect(response, "final maintained mine"):
            return
        self.record(response["cached"], "the final maintained answer was not cached")
        self.replay_check(state, {response["version"]: [(STREAM, response["result"])]})


WORKLOADS = {cls.name: cls for cls in (ColdMine, ServeMixed, ShardedStream)}
