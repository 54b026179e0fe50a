"""Command-line interface: ``python -m repro`` / ``repro-graph``.

Subcommands
-----------
``measure``      compute the support spectrum for a pattern in a graph
``mine``         mine frequent patterns from a graph
``mine-stream``  maintain frequent patterns while replaying a graph-update stream
``serve``        run the long-lived graph service (NDJSON over stdio or TCP)
``watch``        stream standing-query answer-change events (NDJSON)
``partition``    split a graph into edge-disjoint shards on disk
``figure``       regenerate a paper figure worksheet (fig1 .. fig10)
``info``         list registered measures with their properties

Every mining flag default is read off
:data:`repro.mining.spec.DEFAULT_SPEC` — the library's
:class:`~repro.mining.spec.MiningSpec` field defaults are the single
source of truth, shared by ``mine``, ``mine-stream`` and ``serve``
through one argparse parent (``tests/test_mining_spec.py`` pins the
agreement).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.report import format_hypergraph, format_occurrence_table, format_table
from .analysis.spectrum import measure_spectrum, spectrum_report
from .graph.io import load_graph, load_pattern
from .hypergraph.construction import HypergraphBundle
from .measures.base import available_measures, measure_info
from .mining.spec import DEFAULT_SPEC, STREAM_MODES, MiningSpec
from .partition.partitioner import PARTITION_METHODS


def _spec_parent() -> argparse.ArgumentParser:
    """Shared mining flags, defaults read off :data:`DEFAULT_SPEC`.

    One parent parser feeds ``mine``, ``mine-stream`` and ``serve``; no
    subcommand re-declares a default, so the CLI cannot drift from the
    library again.
    """
    spec = DEFAULT_SPEC
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--measure", default=spec.measure, help="support measure name")
    parent.add_argument("--min-support", type=float, default=spec.min_support)
    parent.add_argument("--max-nodes", type=int, default=spec.max_pattern_nodes)
    parent.add_argument("--max-edges", type=int, default=spec.max_pattern_edges)
    parent.add_argument(
        "--lazy",
        action="store_true",
        default=spec.lazy,
        help=(
            "MNI only: decide frequency with threshold-bounded evaluation "
            "(reported supports are capped at the threshold)"
        ),
    )
    parent.add_argument(
        "--no-index",
        action="store_true",
        default=not spec.use_index,
        help="disable the graph acceleration index (brute-force reference path)",
    )
    parent.add_argument(
        "--workers",
        type=int,
        default=spec.workers,
        help="evaluate candidates in this many worker processes",
    )
    parent.add_argument(
        "--shards",
        type=int,
        default=spec.shards,
        help=(
            "partition the data graph into this many edge-disjoint shards and "
            "evaluate support shard-by-shard (results identical to --shards 1)"
        ),
    )
    parent.add_argument(
        "--partition",
        choices=PARTITION_METHODS,
        default=spec.partition_method,
        help="partitioner used when --shards > 1",
    )
    parent.add_argument(
        "--max-resident",
        type=int,
        default=spec.max_resident,
        help=(
            "hold halo views for at most this many shards in a serial "
            "sharded run, dropping the least recently used shard's view and "
            "shipping it whole again on its next use; a pooled parent holds "
            "no views, so the bound holds there trivially (requires "
            "--shards > 1; results identical regardless of eviction order)"
        ),
    )
    return parent


def _obs_parent() -> argparse.ArgumentParser:
    """Observability flags shared by ``mine``, ``mine-stream`` and ``serve``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help=(
            "emit repro.* logs at this level to stderr (default: silent; "
            "fallback paths that change strategy log at warning)"
        ),
    )
    return parent


def _stream_parent() -> argparse.ArgumentParser:
    """Update-stream flags shared by ``mine-stream`` and ``serve``."""
    spec = DEFAULT_SPEC
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--batch-size",
        type=int,
        default=spec.batch_size,
        help="updates applied between refreshes of the frequent-pattern set",
    )
    parent.add_argument(
        "--window",
        type=int,
        default=spec.window,
        metavar="N",
        help=(
            "sliding window: after each batch, expire the oldest live "
            "stream-inserted edges until at most N remain (base-graph edges "
            "never expire; re-inserting an expired edge restarts its age)"
        ),
    )
    return parent


def spec_from_args(args: argparse.Namespace, stream: bool = False) -> MiningSpec:
    """The one place CLI flags become a :class:`MiningSpec`."""
    fields = dict(
        measure=args.measure,
        min_support=args.min_support,
        max_pattern_nodes=args.max_nodes,
        max_pattern_edges=args.max_edges,
        lazy=args.lazy,
        use_index=not args.no_index,
        workers=args.workers,
        shards=args.shards,
        partition_method=args.partition,
        max_resident=args.max_resident,
    )
    if stream:
        fields.update(batch_size=args.batch_size, window=args.window)
        if hasattr(args, "mode"):
            fields["mode"] = args.mode
    return MiningSpec.from_kwargs(**fields)


def _cmd_measure(args: argparse.Namespace) -> int:
    data = load_graph(args.graph)
    pattern = load_pattern(args.pattern)
    spectrum = measure_spectrum(pattern, data)
    print(
        spectrum_report(spectrum, title=f"{pattern.name or 'pattern'} in {data.name}")
    )
    return 0


def _frequent_table(result, title: str) -> str:
    """The frequent-pattern table shared by ``mine`` and ``mine-stream``."""
    rows = [
        [i + 1, fp.num_nodes, fp.num_edges, fp.support, fp.num_occurrences]
        for i, fp in enumerate(result.frequent)
    ]
    return format_table(
        ["#", "nodes", "edges", "support", "occurrences"], rows, title=title
    )


def _cmd_mine(args: argparse.Namespace) -> int:
    from .mining.miner import mine_frequent_patterns

    want_trace = bool(args.profile or args.trace_out)
    if want_trace:
        from .obs import trace

        trace.enable()
    data = load_graph(args.graph)
    result = mine_frequent_patterns(data, spec=spec_from_args(args))
    trace_epilogue: List[str] = []
    if want_trace:
        records = trace.get_trace(trace.last_trace_id())
        if args.profile:
            from .obs import metrics as _metrics
            from .obs.profile import format_profile

            trace_epilogue.append(format_profile(records))
            registry = _metrics.get_registry()
            trace_epilogue.append(
                "index footprint: bytes={:.0f} intern_entries={:.0f}".format(
                    registry.gauge("repro_index_bytes").value,
                    registry.gauge("repro_index_intern_entries").value,
                )
            )
        if args.trace_out:
            written = trace.export_ndjson(args.trace_out)
            trace_epilogue.append(f"wrote {written} span(s) to {args.trace_out}")
    if args.json:
        from .service.protocol import result_payload

        # The same canonical, stats-free payload the service protocol
        # sends — so a served response diffs 1:1 against a one-shot run.
        import json

        print(json.dumps(result_payload(result), sort_keys=True, indent=2))
        # Keep stdout parseable: the profile goes to stderr in JSON mode.
        for block in trace_epilogue:
            print(block, file=sys.stderr)
        return 0
    print(
        _frequent_table(
            result,
            f"{result.num_frequent} frequent patterns "
            f"(measure={result.measure}, min_support={result.min_support:g})",
        )
    )
    stats = result.stats.as_dict()
    print("\n" + format_table(["counter", "value"], sorted(stats.items())))
    for block in trace_epilogue:
        print("\n" + block)
    return 0


def _cmd_mine_stream(args: argparse.Namespace) -> int:
    from .graph.io import load_update_stream
    from .mining.dynamic import mine_stream

    data = load_graph(args.graph)
    # Validate the stream against the base graph it is about to mutate;
    # malformed records and impossible deletions fail here with a line
    # number instead of halfway through the replay.  window=True relaxes
    # only the checks sliding-window expiry can falsify.
    updates = load_update_stream(args.updates, base=data, window=bool(args.window))
    rows = []
    last = None
    for step in mine_stream(data, updates, spec=spec_from_args(args, stream=True)):
        last = step
        stats = step.result.stats
        rows.append(
            [
                step.batch,
                step.updates_applied,
                step.edges_expired,
                step.num_vertices,
                step.num_edges,
                step.result.num_frequent,
                stats.patterns_evaluated,
                stats.patterns_reused,
                stats.patterns_skipped_unaffected,
            ]
        )
    window_note = f", window={args.window}" if args.window else ""
    shard_note = (
        f", shards={args.shards} ({args.partition})" if args.shards > 1 else ""
    )
    print(
        format_table(
            [
                "batch",
                "updates",
                "expired",
                "|V|",
                "|E|",
                "frequent",
                "evaluated",
                "reused",
                "skipped",
            ],
            rows,
            title=(
                f"mine-stream over {len(updates)} updates "
                f"(mode={args.mode}, measure={args.measure}, "
                f"min_support={args.min_support:g}, "
                f"batch_size={args.batch_size}{window_note}{shard_note})"
            ),
        )
    )
    assert last is not None
    print(
        "\n"
        + _frequent_table(
            last.result,
            f"{last.result.num_frequent} frequent patterns after the stream",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs import trace
    from .service import GraphService
    from .service.server import serve_stdio, serve_tcp

    # The daemon always collects spans: mine responses echo a trace_id
    # and the `trace` verb replays the span tree.
    trace.enable()
    data = load_graph(args.graph)
    service = GraphService(
        data,
        maintain=spec_from_args(args, stream=True),
        cache_size=args.cache_size,
    )
    try:
        if args.port is not None:
            serve_tcp(service, host=args.host, port=args.port, announce=sys.stdout)
        else:
            serve_stdio(service, sys.stdin, sys.stdout)
    finally:
        service.stop()
    return 0


def _standing_specs_from_args(args: argparse.Namespace, delivery: str):
    """The standing queries a ``watch`` invocation registers."""
    from .mining.standing import StandingSpec

    events = None
    if args.events:
        events = [name.strip() for name in args.events.split(",") if name.strip()]
    common = dict(
        measure=args.measure,
        min_support=args.min_support,
        lazy=args.lazy,
        events=events,
        delivery=delivery,
    )
    specs = [
        StandingSpec.from_kwargs(pattern=load_pattern(path), **common)
        for path in args.patterns
    ]
    if args.threshold or not args.patterns:
        specs.append(
            StandingSpec.from_kwargs(
                kind="threshold",
                max_nodes=args.max_nodes,
                max_edges=args.max_edges,
                **common,
            )
        )
    return specs


def _cmd_watch(args: argparse.Namespace) -> int:
    """``repro watch``: stream standing-query answer changes as NDJSON."""
    import json

    if args.connect:
        return _watch_connect(args)
    if not args.graph or not args.updates:
        print(
            "watch needs either --connect HOST:PORT or --graph plus --updates",
            file=sys.stderr,
        )
        return 2
    from .graph.io import load_update_stream
    from .service import GraphService, answer_payload

    data = load_graph(args.graph)
    updates = load_update_stream(args.updates, base=data, window=bool(args.window))
    specs = _standing_specs_from_args(args, delivery="poll")
    service = GraphService(data, window=args.window)
    try:
        subs = [service.subscribe(spec) for spec in specs]
        for sub in subs:
            print(
                json.dumps(
                    {
                        "event": "subscribed",
                        "subscription": sub.id,
                        "kind": sub.spec.kind,
                        "version": sub.version,
                        "answer": answer_payload(sub.answer_snapshot()),
                    }
                )
            )
        for info in service.stream(updates, batch_size=args.batch_size):
            print(
                json.dumps(
                    {
                        "event": "batch",
                        "version": info.version,
                        "applied": info.applied,
                        "expired": info.expired,
                        "num_vertices": info.num_vertices,
                        "num_edges": info.num_edges,
                    }
                )
            )
            for sub in subs:
                for event in sub.poll():
                    print(json.dumps({"subscription": sub.id, **event.payload()}))
    finally:
        service.stop()
    return 0


def _watch_connect(args: argparse.Namespace) -> int:
    """Thin push-delivery subscriber against a running ``repro serve``."""
    import json
    import socket

    host, _, port = args.connect.rpartition(":")
    if not port.isdigit():
        print(f"--connect expects HOST:PORT, got {args.connect!r}", file=sys.stderr)
        return 2
    specs = _standing_specs_from_args(args, delivery="push")
    sock = socket.create_connection((host or "127.0.0.1", int(port)))
    try:
        reader = sock.makefile("r", encoding="utf-8")
        for i, spec in enumerate(specs):
            # Once the first subscription is live the server may push a
            # notify frame at any moment — correlate each response by the
            # echoed request id, relaying push/event frames seen en route.
            request_id = f"watch-{i}"
            request = {
                "op": "subscribe",
                "v": 1,
                "id": request_id,
                "spec": spec.as_dict(),
            }
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            response = None
            for line in reader:
                frame = json.loads(line)
                if frame.get("id") == request_id:
                    response = frame
                    break
                print(json.dumps(frame), flush=True)
            if response is None:  # server went away mid-handshake
                print(
                    f"connection closed before subscribe {request_id} "
                    "was answered",
                    file=sys.stderr,
                )
                return 1
            print(json.dumps(response), flush=True)
            if not response.get("ok"):
                return 1
        # From here the server pushes notify frames; relay them verbatim
        # until the server goes away or the user interrupts.
        try:
            for line in reader:
                print(line, end="", flush=True)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
    finally:
        sock.close()
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from .partition import ShardedIndex, save_partition

    data = load_graph(args.graph)
    if args.rebalance:
        return _cmd_partition_rebalance(args, data)
    sharded = ShardedIndex.build(data, args.shards, args.method)
    manifest = save_partition(sharded, args.outdir)
    _print_partition_summary(sharded, data.name or args.graph)
    print(f"wrote {manifest}")
    return 0


def _cmd_partition_rebalance(args: argparse.Namespace, data) -> int:
    """``repro partition --rebalance``: maintain an existing shard directory.

    Loads the partition from ``outdir``, absorbs any drift between its
    reconstructed graph and the (possibly updated) ``graph`` file as
    ordinary deltas routed to their owning shards, applies the rebalance
    policy, and saves the directory back — re-partitioning from scratch
    only if the maintainer's policy demands it.
    """
    from .partition import (
        RebalancePolicy,
        ShardedIndexMaintainer,
        absorb_graph,
        load_partition,
        save_partition,
    )

    sharded = load_partition(args.outdir)
    policy = RebalancePolicy(
        max_load_factor=args.max_load,
        max_replication=args.max_replication,
    )
    maintainer = ShardedIndexMaintainer(sharded=sharded, policy=policy)
    absorbed = absorb_graph(sharded.graph, data)
    sharded = maintainer.sharded()
    manifest = save_partition(sharded, args.outdir)
    _print_partition_summary(sharded, data.name or args.graph)
    print(
        f"\nabsorbed {absorbed} graph update(s) "
        f"({maintainer.patches_applied} patched, "
        f"{maintainer.rebuilds} re-partition(s)); "
        f"rebalance moved {maintainer.edges_moved} edge(s), "
        f"{maintainer.full_repartitions} full re-partition(s) by policy"
    )
    print(f"wrote {manifest}")
    return 0


def _print_partition_summary(sharded, title: str) -> None:
    rows = []
    for shard in sharded.shards:
        halo = len(sharded.halo_vertices(shard.shard_id))
        rows.append(
            [
                shard.shard_id,
                shard.num_vertices,
                shard.num_core_edges,
                halo,
                shard.num_vertices - halo,
            ]
        )
    print(
        format_table(
            ["shard", "|V|", "core edges", "halo", "interior"],
            rows,
            title=(
                f"{title}: {sharded.num_shards} shards "
                f"(method={sharded.partition.method})"
            ),
        )
    )
    print(
        f"\nboundary vertices: {len(sharded.boundary_vertices())} / "
        f"{sharded.graph.num_vertices}  "
        f"replication factor: {sharded.replication_factor():.3f}"
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    from .datasets.paper_figures import load_figure
    from .isomorphism.matcher import find_occurrences

    example = load_figure(args.figure_id)
    print(f"{example.figure_id}: {example.title}")
    print(f"  {example.notes}\n")
    occurrences = find_occurrences(example.pattern, example.data_graph)
    print(format_occurrence_table(example.pattern, occurrences))
    bundle = HypergraphBundle.build(example.pattern, example.data_graph)
    print("\n" + format_hypergraph(bundle.occurrence_hg))
    spectrum = measure_spectrum(example.pattern, example.data_graph, bundle=bundle)
    print("\n" + spectrum_report(spectrum))
    if example.expected:
        rows = [[key, value] for key, value in sorted(example.expected.items())]
        print("\n" + format_table(["pinned quantity", "expected"], rows))
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    from .measures.bounds import CHAIN_TEXT, verify_bounding_chain

    data = load_graph(args.graph)
    pattern = load_pattern(args.pattern)
    report = verify_bounding_chain(pattern, data)
    print(f"bounding chain: {CHAIN_TEXT}\n")
    print(format_table(["measure", "value"], report.as_rows()))
    if report.holds:
        print("\nall chain relations hold.")
        return 0
    print("\nVIOLATIONS:")
    for violation in report.violations:
        print(f"  - {violation}")
    return 1


def _cmd_overlap(args: argparse.Namespace) -> int:
    from .hypergraph.overlap import (
        harmful_overlap,
        occurrence_overlap_graph,
        simple_overlap,
        structural_overlap,
    )
    from .isomorphism.matcher import find_occurrences
    from .measures.mis import mis_support_of

    data = load_graph(args.graph)
    pattern = load_pattern(args.pattern)
    occurrences = find_occurrences(pattern, data, limit=args.limit)
    print(
        f"{len(occurrences)} occurrences of {pattern.name or 'pattern'} in {data.name}\n"
    )
    rows = []
    for i, first in enumerate(occurrences):
        for second in occurrences[i + 1:]:
            if not simple_overlap(first, second):
                continue
            rows.append(
                [
                    f"({first.label()}, {second.label()})",
                    "yes",
                    "yes" if harmful_overlap(pattern, first, second) else "-",
                    "yes" if structural_overlap(pattern, first, second) else "-",
                ]
            )
    print(format_table(["pair", "simple", "harmful", "structural"], rows))
    mis_rows = []
    for kind in ("simple", "harmful", "structural"):
        graph = occurrence_overlap_graph(pattern, occurrences, kind=kind)
        mis_rows.append([kind, graph.num_edges, mis_support_of(graph)])
    print("\n" + format_table(["semantics", "overlap edges", "MIS"], mis_rows))
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    rows = []
    for name in available_measures():
        info = measure_info(name)
        rows.append(
            [
                name,
                info.display_name,
                "yes" if info.anti_monotonic else "no",
                info.complexity,
            ]
        )
    print(
        format_table(
            ["name", "measure", "anti-monotonic", "complexity"],
            rows,
            title="registered support measures",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-graph",
        description="Support measures for frequent pattern mining (SIGMOD '17 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    measure = subparsers.add_parser("measure", help="compute the support spectrum")
    measure.add_argument("graph", help="data graph (.lg file)")
    measure.add_argument("pattern", help="pattern (.lg file)")
    measure.set_defaults(func=_cmd_measure)

    spec_parent = _spec_parent()
    stream_parent = _stream_parent()
    obs_parent = _obs_parent()

    mine = subparsers.add_parser(
        "mine", help="mine frequent patterns", parents=[spec_parent, obs_parent]
    )
    mine.add_argument("graph", help="data graph (.lg file)")
    mine.add_argument(
        "--json",
        action="store_true",
        help=(
            "print the canonical JSON result payload (the same shape the "
            "service protocol sends) instead of the tables"
        ),
    )
    mine.add_argument(
        "--profile",
        action="store_true",
        help=(
            "trace the run and print a per-phase wall/CPU breakdown "
            "(seed enumeration and each lattice level)"
        ),
    )
    mine.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="trace the run and write its spans to FILE as NDJSON",
    )
    mine.set_defaults(func=_cmd_mine)

    stream = subparsers.add_parser(
        "mine-stream",
        help="maintain frequent patterns while replaying a graph-update stream",
        parents=[spec_parent, stream_parent, obs_parent],
    )
    stream.add_argument("graph", help="base data graph (.lg file)")
    stream.add_argument(
        "updates", help="update stream (v/e/de/dv lines, applied in order)"
    )
    stream.add_argument(
        "--mode",
        choices=STREAM_MODES,
        default=DEFAULT_SPEC.mode,
        help=(
            "maintenance strategy: delta-patched index + footprint reuse "
            "through the in-process graph service (default), full re-mine "
            "with a rebuilt index, or the index-free brute-force reference"
        ),
    )
    stream.set_defaults(func=_cmd_mine_stream)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived graph service (NDJSON over stdio or TCP)",
        parents=[spec_parent, stream_parent, obs_parent],
        description=(
            "Serve the graph as a long-running daemon: one writer applies "
            "update batches (op=update) through the delta-maintained miner, "
            "concurrent readers mine pinned snapshots (op=mine) with results "
            "cached per (version, spec). Speaks newline-delimited JSON on "
            "stdin/stdout, or TCP with --port (0 = ephemeral; the ready "
            "event announces the bound port)."
        ),
    )
    serve.add_argument("graph", help="base data graph (.lg file)")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve TCP on this port instead of stdio (0 picks a free port)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    serve.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="LRU bound on cached results (default: unbounded)",
    )
    serve.set_defaults(func=_cmd_serve)

    spec = DEFAULT_SPEC
    watch = subparsers.add_parser(
        "watch",
        parents=[obs_parent],
        help="stream standing-query answer-change events (NDJSON)",
        description=(
            "Register standing queries — concrete motifs (pattern files) "
            "and/or the spec-level threshold question — and stream their "
            "typed answer-change events as NDJSON, either by replaying an "
            "update stream through an in-process service (--graph/--updates) "
            "or by subscribing to a running `repro serve` daemon (--connect)."
        ),
    )
    watch.add_argument(
        "patterns", nargs="*", help="pattern files (.lg) to watch as standing motifs"
    )
    watch.add_argument("--graph", help="base data graph (.lg) for in-process replay")
    watch.add_argument(
        "--updates", help="update stream (.up) replayed through the service"
    )
    watch.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="subscribe to a running `repro serve` TCP daemon (push delivery)",
    )
    watch.add_argument(
        "--threshold",
        action="store_true",
        help=(
            "also watch the whole frequent set of the spec-level question "
            "(the default when no pattern files are given)"
        ),
    )
    watch.add_argument("--measure", default=spec.measure, help="support measure name")
    watch.add_argument("--min-support", type=float, default=spec.min_support)
    watch.add_argument("--max-nodes", type=int, default=spec.max_pattern_nodes)
    watch.add_argument("--max-edges", type=int, default=spec.max_pattern_edges)
    watch.add_argument("--lazy", action="store_true", default=spec.lazy)
    watch.add_argument(
        "--events",
        default=None,
        metavar="TYPES",
        help=(
            "comma-separated event-type filter (default: all; note that "
            "filtered streams no longer reconstruct the full answer)"
        ),
    )
    watch.add_argument(
        "--batch-size",
        type=int,
        default=spec.batch_size,
        help="updates applied per dispatched batch (replay mode)",
    )
    watch.add_argument(
        "--window",
        type=int,
        default=spec.window,
        metavar="N",
        help="sliding window for the replayed stream (replay mode)",
    )
    watch.set_defaults(func=_cmd_watch)

    partition = subparsers.add_parser(
        "partition", help="split a graph into edge-disjoint shards on disk"
    )
    partition.add_argument("graph", help="data graph (.lg file)")
    partition.add_argument("outdir", help="output shard directory")
    partition.add_argument("--shards", type=int, default=2, help="number of shards")
    partition.add_argument(
        "--method",
        choices=PARTITION_METHODS,
        default="hash",
        help="edge partitioner",
    )
    partition.add_argument(
        "--rebalance",
        action="store_true",
        help=(
            "maintain the existing shard directory in outdir instead of "
            "re-partitioning: absorb the graph file's drift as deltas "
            "routed to their owning shards, then re-balance overflowing "
            "shards (--shards/--method come from the saved manifest)"
        ),
    )
    partition.add_argument(
        "--max-load",
        type=float,
        default=1.5,
        metavar="FACTOR",
        help=(
            "with --rebalance: a shard may hold at most FACTOR x the ideal "
            "|E|/k core edges before shedding edges (default 1.5)"
        ),
    )
    partition.add_argument(
        "--max-replication",
        type=float,
        default=None,
        metavar="FACTOR",
        help=(
            "with --rebalance: replication-factor ceiling that triggers a "
            "full re-partition instead of local moves (default: disabled)"
        ),
    )
    partition.set_defaults(func=_cmd_partition)

    figure = subparsers.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("figure_id", help="fig1 .. fig10")
    figure.set_defaults(func=_cmd_figure)

    chain = subparsers.add_parser(
        "chain", help="verify the bounding chain for a pattern in a graph"
    )
    chain.add_argument("graph", help="data graph (.lg file)")
    chain.add_argument("pattern", help="pattern (.lg file)")
    chain.set_defaults(func=_cmd_chain)

    overlap = subparsers.add_parser(
        "overlap", help="classify overlapping occurrence pairs (Section 4.5)"
    )
    overlap.add_argument("graph", help="data graph (.lg file)")
    overlap.add_argument("pattern", help="pattern (.lg file)")
    overlap.add_argument("--limit", type=int, default=200, help="max occurrences")
    overlap.set_defaults(func=_cmd_overlap)

    info = subparsers.add_parser("info", help="list registered measures")
    info.set_defaults(func=_cmd_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log_level", None):
        from .obs import configure_logging

        configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
