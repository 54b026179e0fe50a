"""CI smoke for the service daemon: protocol vs one-shot CLI, per Python.

Starts a real ``repro serve`` subprocess on an ephemeral TCP port, replays
a mixed insert/delete update stream over the JSON protocol, and after each
batch issues **two concurrent mine requests** on separate connections.
Every protocol response is diffed byte-for-byte against a one-shot CLI
``mine --json`` of the graph materialized at the same version — the
acceptance bar for the whole service layer: whichever path answers
(writer-maintained cache, reader snapshot mine, or a from-scratch CLI
process), the result bytes must be identical.

A standing threshold subscription rides along on its own connection: the
events polled after every batch are replayed client-side and the
reconstructed answer is diffed byte-for-byte against the same one-shot
CLI payload — the acceptance bar for the subscription layer.  A second,
push-delivery subscription must receive identical events as unsolicited
``notify`` frames.

Run from the repository root: ``PYTHONPATH=src python scripts/serve_smoke.py``.
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC)
# Child processes (the server, the one-shot CLI runs) need the package too.
_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = _SRC + os.pathsep + _ENV.get("PYTHONPATH", "")

from repro.graph.builders import path_graph  # noqa: E402
from repro.graph.io import save_graph  # noqa: E402
from repro.mining.dynamic import StreamApplier  # noqa: E402

SPEC_FLAGS = ["--min-support", "2", "--max-nodes", "3"]
SPEC_FIELDS = {"min_support": 2, "max_nodes": 3}

# The daemon runs the full execution stack — sharded, pooled, paged —
# while the one-shot reference stays serial and flat: the byte-for-byte
# diff below then doubles as an execution-strategy equivalence check,
# and every instrumented subsystem registers its metrics.
SERVE_FLAGS = SPEC_FLAGS + [
    "--shards", "3",
    "--workers", "2",
    "--max-resident", "2",
]

#: One core counter per instrumented subsystem that a stream of update
#: batches plus mine requests must have moved (the `metrics` verb gate).
CORE_NONZERO = [
    "repro_miner_sessions",  # the writer's maintained refreshes
    "repro_sharded_index_patches_applied",  # delta maintenance patched
    "repro_pool_slices_shipped",  # resident workers got their shards
    "repro_pager_recomputes",  # halo views computed for whole shipments
    "repro_snapshots_publishes",  # MVCC advanced per batch
    "repro_snapshots_pins",  # readers pinned snapshots
    "repro_cache_entries",  # maintained results cached
    "repro_service_batches_applied",  # the writer applied our batches
    "repro_service_mine_requests",  # the readers' mines were served
    "repro_subs_registered",  # the standing subscriptions registered
    "repro_subs_dispatches",  # every batch was routed to subscribers
    "repro_subs_evaluations",  # affected subscriptions re-evaluated
    "repro_subs_events_emitted",  # answer changes became typed events
]

BATCHES = [
    [["v", 7, "a"], ["e", 6, 7], ["v", 8, "b"], ["e", 7, 8]],  # inserts
    [["de", 1, 2], ["dv", 1], ["e", 8, 2]],  # deletions + re-link
    [["v", 9, "a"], ["e", 8, 9], ["de", 3, 4]],  # mixed
]


class Client:
    """One NDJSON connection to the served port."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def request(self, payload, expect_error=False):
        self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        response = json.loads(self.reader.readline())
        if expect_error:
            if response.get("ok"):
                raise SystemExit(f"FAIL: request {payload} succeeded: {response}")
        elif payload.get("op") != "shutdown" and not response.get("ok"):
            raise SystemExit(f"FAIL: request {payload} -> {response}")
        if response.get("v") != 1:
            raise SystemExit(f"FAIL: response without protocol v:1: {response}")
        return response

    def read_event(self):
        """One unsolicited server-push frame (blocks until it arrives)."""
        return json.loads(self.reader.readline())

    def close(self):
        self.reader.close()
        self.sock.close()


def replay_events(answer, events):
    """Apply poll/notify event payloads to a client-side answer dict."""
    for event in events:
        if event["support"] is None:
            answer.pop(event["certificate"], None)
        else:
            answer[event["certificate"]] = {
                "support": event["support"],
                "num_occurrences": event["num_occurrences"],
            }
    return answer


def answer_bytes(answer):
    """Canonical bytes of a client-side answer, CLI-payload comparable."""
    payload = [
        {"certificate": cert, **entry} for cert, entry in sorted(answer.items())
    ]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def one_shot_cli(graph_path):
    """The canonical payload from a from-scratch CLI ``mine --json``."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "mine", str(graph_path), "--json"]
        + SPEC_FLAGS,
        capture_output=True,
        text=True,
        check=True,
        env=_ENV,
    )
    return json.loads(out.stdout)


def main():
    workdir = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    base = path_graph(["a", "b", "a", "b", "a", "b"])
    base_path = workdir / "base.lg"
    save_graph(base, base_path)

    # Reference graphs: the base with each prefix of the stream applied
    # directly (no service involved), saved for one-shot CLI mining.
    reference = path_graph(["a", "b", "a", "b", "a", "b"])
    applier = StreamApplier(reference, window=None)
    reference_paths = []
    for i, batch in enumerate(BATCHES):
        applier.apply_batch([tuple(record) for record in batch])
        ref_path = workdir / f"after-batch-{i}.lg"
        save_graph(reference, ref_path)
        reference_paths.append(ref_path)

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(base_path), "--port", "0"]
        + SERVE_FLAGS,
        stdout=subprocess.PIPE,
        text=True,
        env=_ENV,
    )
    try:
        ready = json.loads(server.stdout.readline())
        assert ready.get("event") == "ready", f"FAIL: bad ready event {ready}"
        port = ready["port"]
        print(f"serving on port {port} at version {ready['version']}")

        control = Client(port)
        assert control.request({"op": "ping"})["op"] == "ping"

        # Protocol versioning: pinning v:1 works, anything else is
        # refused with the machine-readable code.
        assert control.request({"op": "ping", "v": 1})["op"] == "ping"
        refused = control.request({"op": "ping", "v": 99}, expect_error=True)
        assert refused.get("code") == "unsupported_protocol", (
            f"FAIL: v:99 not refused as unsupported_protocol: {refused}"
        )
        unknown = control.request({"op": "frob"}, expect_error=True)
        assert unknown.get("code") == "unknown_op", (
            f"FAIL: unknown op code missing: {unknown}"
        )

        # Standing subscriptions: a poll-delivery subscriber whose
        # replayed events must reconstruct the one-shot CLI answer, and
        # a push-delivery subscriber that must see identical events as
        # unsolicited notify frames.
        poller = Client(port)
        subscribed = poller.request({"op": "subscribe", "spec": SPEC_FIELDS})
        sub_id = subscribed["subscription"]
        answer = {
            entry["certificate"]: {
                "support": entry["support"],
                "num_occurrences": entry["num_occurrences"],
            }
            for entry in subscribed["answer"]
        }
        pusher = Client(port)
        push_spec = dict(SPEC_FIELDS, delivery="push")
        push_sub = pusher.request({"op": "subscribe", "spec": push_spec})
        assert push_sub["answer"] == subscribed["answer"], (
            "FAIL: push/poll subscription baselines diverged"
        )
        print(
            f"subscribed {sub_id} (poll) + {push_sub['subscription']} (push): "
            f"{len(answer)} frequent at version {subscribed['version']}"
        )
        # Both subscriptions ask the daemon's maintained question: they
        # share its one miner instead of each building their own.
        maintained = control.request({"op": "metrics"})["metrics"].get(
            "repro_service_maintained_specs"
        )
        assert maintained == 1, (
            f"FAIL: expected 1 maintained spec for the maintained key and its "
            f"two subscriptions, got {maintained}"
        )

        for i, batch in enumerate(BATCHES):
            info = control.request({"op": "update", "updates": batch})
            print(
                f"batch {i}: version {info['version']} "
                f"({info['num_vertices']}v/{info['num_edges']}e)"
            )

            # Two concurrent mine requests on their own connections —
            # readers over pinned snapshots while the writer sits idle.
            results = [None, None]

            def mine(slot):
                client = Client(port)
                try:
                    results[slot] = client.request(
                        {"op": "mine", "spec": SPEC_FIELDS, "id": slot}
                    )
                finally:
                    client.close()

            threads = [threading.Thread(target=mine, args=(slot,)) for slot in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            expected = one_shot_cli(reference_paths[i])
            for slot, response in enumerate(results):
                assert response is not None, f"FAIL: reader {slot} died"
                assert response["version"] == info["version"], (
                    f"FAIL: reader {slot} mined version {response['version']}, "
                    f"expected {info['version']}"
                )
                if response["result"] != expected:
                    raise SystemExit(
                        f"FAIL: batch {i} reader {slot} diverged from the "
                        f"one-shot CLI:\nserved:  {response['result']}\n"
                        f"one-shot: {expected}"
                    )
            print(
                f"batch {i}: both concurrent readers == one-shot CLI "
                f"({expected['num_frequent']} frequent patterns)"
            )

            # The standing subscription's events, replayed client-side,
            # must reconstruct the same answer the one-shot CLI reports.
            polled = poller.request({"op": "poll_events", "subscription": sub_id})
            replay_events(answer, polled["events"])
            expected_bytes = answer_bytes(
                {
                    p["certificate"]: {
                        "support": p["support"],
                        "num_occurrences": p["num_occurrences"],
                    }
                    for p in expected["patterns"]
                }
            )
            replayed_bytes = answer_bytes(answer)
            if replayed_bytes != expected_bytes:
                raise SystemExit(
                    f"FAIL: batch {i} replayed subscription answer diverged "
                    f"from the one-shot CLI:\nreplayed: {replayed_bytes}\n"
                    f"one-shot: {expected_bytes}"
                )
            if polled["events"]:
                # The push subscriber watches the same spec, so the same
                # answer change must arrive as an unsolicited frame with
                # identical typed events.
                frame = pusher.read_event()
                assert frame.get("event") == "notify" and frame.get("v") == 1, (
                    f"FAIL: bad notify frame: {frame}"
                )
                assert frame["events"] == polled["events"], (
                    f"FAIL: push events diverged from polled events:\n"
                    f"push: {frame['events']}\npoll: {polled['events']}"
                )
            print(
                f"batch {i}: {len(polled['events'])} subscription event(s) "
                f"replayed == one-shot CLI answer"
                + (" (push frame identical)" if polled["events"] else "")
            )

        stats = control.request({"op": "stats"})
        assert stats["version"] == info["version"], (
            f"FAIL: stats reports version {stats['version']}, "
            f"expected {info['version']}"
        )

        # The mine response echoes a trace id; the trace verb must replay
        # that request's span tree.
        last_mine = results[0]
        trace_id = last_mine.get("trace_id")
        assert trace_id, f"FAIL: mine response carried no trace_id: {last_mine}"
        spans = control.request({"op": "trace", "trace_id": trace_id})["spans"]
        span_names = {span["name"] for span in spans}
        assert "service.mine" in span_names, (
            f"FAIL: trace {trace_id} has no service.mine span: {span_names}"
        )
        print(f"trace {trace_id}: {len(spans)} span(s), names {sorted(span_names)}")

        # The metrics verb: the full registry snapshot, with at least one
        # moved counter per instrumented subsystem.
        metrics = control.request({"op": "metrics"})["metrics"]
        flat = {k: v for k, v in metrics.items() if not isinstance(v, dict)}
        quiet = [name for name in CORE_NONZERO if not flat.get(name)]
        assert not quiet, (
            f"FAIL: core counters never moved: {quiet}\nsnapshot: {metrics}"
        )
        print(
            f"cache: {metrics['repro_cache_hits']} hits / "
            f"{metrics['repro_cache_misses']} misses / "
            f"{metrics['repro_cache_evictions']} evictions"
        )
        moved = sum(1 for value in flat.values() if value)
        print(
            f"metrics: {len(metrics)} instruments, {moved} moved; "
            f"all {len(CORE_NONZERO)} core counters non-zero"
        )

        assert flat.get("repro_subs_active") == 2, (
            f"FAIL: expected 2 active subscriptions, "
            f"got {flat.get('repro_subs_active')}"
        )
        done = poller.request({"op": "unsubscribe", "subscription": sub_id})
        assert done["ok"], f"FAIL: unsubscribe failed: {done}"
        poller.close()
        pusher.close()  # disconnect GC reaps the push subscription

        control.request({"op": "shutdown"})
        control.close()
        server.wait(timeout=120)
    finally:
        if server.poll() is None:
            server.kill()
    print("serve smoke OK")


if __name__ == "__main__":
    main()
