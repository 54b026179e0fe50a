"""Saving and loading partitioned data graphs as shard directories.

A partitioned graph is a directory of per-shard ``.lg`` files plus a
``manifest.json``:

    out/
      manifest.json       format version, name, method, shard summary,
                          assignment state (isolated vertices + router)
      shard-0000.lg       shard 0's core vertices (incl. halo copies) + core edges
      shard-0001.lg       ...

Each shard file is a self-contained ``.lg`` graph — any GraMi-style tool
can read one shard in isolation.  Boundary vertices are replicated into
every incident shard's file (with consistent labels), edges appear in
exactly one file, and isolated vertices in their assigned shard's file —
so the union of the shard files reconstructs the original graph exactly,
and the file an edge appears in *is* its shard assignment (no separate
assignment table to drift out of sync).

Format 2 manifests additionally persist the partition's **assignment
state**: the explicit isolated-vertex assignments and the online
router's state (per-shard loads plus the label method's sticky
pair → shard map — including pairs whose edges have all been deleted,
which shard files alone cannot express).  A loaded partition therefore
keeps absorbing deltas *exactly* like the one that was saved: same
method, same routing decisions, same shard for a re-inserted edge.
Format 1 directories (pre-dynamic-partitions) still load; their router
state is reconstructed from the shard files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..errors import DatasetError, PartitionError
from ..graph.io import format_lg, parse_lg
from ..graph.labeled_graph import LabeledGraph
from .partitioner import PARTITION_METHODS, EdgeRouter, Partition
from .sharded_index import ShardedIndex

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 2
#: Manifest versions :func:`load_partition` understands.
SUPPORTED_FORMATS = (1, MANIFEST_FORMAT)


def _shard_filename(shard_id: int) -> str:
    return f"shard-{shard_id:04d}.lg"


def save_partition(sharded: ShardedIndex, directory: PathLike) -> Path:
    """Write ``sharded`` as a shard directory; returns the manifest path.

    The directory is created if missing; existing shard files of the same
    names are overwritten.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": MANIFEST_FORMAT,
        "name": sharded.graph.name,
        "method": sharded.partition.method,
        "num_shards": sharded.num_shards,
        "num_vertices": sharded.graph.num_vertices,
        "num_edges": sharded.graph.num_edges,
        "shards": [],
        "vertex_assignment": sorted(
            (
                [vertex, shard]
                for vertex, shard in sharded.partition.vertex_assignment.items()
            ),
            key=repr,
        ),
        "router": sharded.router().state_dict(),
    }
    for shard in sharded.shards:
        filename = _shard_filename(shard.shard_id)
        (directory / filename).write_text(format_lg(shard.graph))
        manifest["shards"].append(
            {
                "file": filename,
                "vertices": shard.num_vertices,
                "core_edges": shard.num_core_edges,
                "halo": len(sharded.halo_vertices(shard.shard_id)),
            }
        )
    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_partition(directory: PathLike) -> ShardedIndex:
    """Load a shard directory back into a :class:`ShardedIndex`.

    The data graph is reconstructed as the union of the shard files
    (edge-disjoint by construction; replicated boundary vertices collapse
    on their consistent labels), each edge's shard assignment is
    recovered from the file it appears in, and — for format 2 manifests —
    the isolated-vertex assignments and online router state are restored
    verbatim, so the loaded partition routes future deltas exactly like
    the saved one.

    Raises
    ------
    DatasetError
        When the directory or its manifest is missing or malformed.
    PartitionError
        When the shard files contradict the manifest (duplicate edge
        ownership, unknown method, wrong shard count, unknown assigned
        vertices).
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise DatasetError(f"partition manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"malformed partition manifest {manifest_path}: {exc}")
    manifest_format = manifest.get("format")
    if manifest_format not in SUPPORTED_FORMATS:
        raise DatasetError(f"unsupported partition manifest format {manifest_format!r}")
    method = manifest.get("method")
    if method not in PARTITION_METHODS:
        raise PartitionError(f"manifest names unknown partition method {method!r}")
    entries = manifest.get("shards", [])
    num_shards = manifest.get("num_shards")
    if not isinstance(num_shards, int) or num_shards != len(entries):
        raise PartitionError(
            f"manifest shard count {num_shards!r} does not match "
            f"{len(entries)} shard entries"
        )

    graph = LabeledGraph(name=manifest.get("name") or "")
    assignment = {}
    vertex_assignment = {}
    shard_graphs = []
    for shard_id, entry in enumerate(entries):
        filename = entry.get("file") if isinstance(entry, dict) else None
        if not filename:
            raise DatasetError(
                f"manifest shard entry {shard_id} has no 'file' field"
            )
        path = directory / filename
        if not path.exists():
            raise DatasetError(f"shard file not found: {path}")
        shard_graph = parse_lg(path.read_text(), name=path.stem)
        shard_graphs.append(shard_graph)
        for vertex in shard_graph.vertices():
            label = shard_graph.label_of(vertex)
            if graph.has_vertex(vertex) and graph.label_of(vertex) != label:
                raise PartitionError(
                    f"shard file {filename} re-declares boundary vertex "
                    f"{vertex!r} with label {label!r} "
                    f"(was {graph.label_of(vertex)!r}); replicas must agree"
                )
            graph.add_vertex(vertex, label)
        for edge in shard_graph.edges():
            if edge in assignment:
                raise PartitionError(
                    f"edge {edge!r} appears in shards {assignment[edge]} "
                    f"and {shard_id}; shard files must be edge-disjoint"
                )
            assignment[edge] = shard_id
            graph.add_edge(*edge)
    saved_assignment = manifest.get("vertex_assignment")
    if manifest_format >= 2 and isinstance(saved_assignment, list):
        # Explicit isolated-vertex assignments survive the round trip.
        for vertex, shard_id in saved_assignment:
            if not graph.has_vertex(vertex):
                raise PartitionError(
                    f"manifest assigns unknown vertex {vertex!r} to shard "
                    f"{shard_id}; it appears in no shard file"
                )
            if not isinstance(shard_id, int) or not 0 <= shard_id < num_shards:
                raise PartitionError(
                    f"manifest assigns vertex {vertex!r} to shard "
                    f"{shard_id!r}, outside the {num_shards} declared shards"
                )
            vertex_assignment[vertex] = shard_id
    else:
        # Format 1: isolated vertices are the ones no edge carried in;
        # their file is their assignment.
        for shard_id, shard_graph in enumerate(shard_graphs):
            for vertex in shard_graph.vertices():
                if graph.degree(vertex) == 0:
                    vertex_assignment[vertex] = shard_id
    partition = Partition(
        num_shards=num_shards,
        method=method,
        assignment=assignment,
        vertex_assignment=vertex_assignment,
    )
    sharded = ShardedIndex(graph, partition)
    router_state = manifest.get("router")
    if manifest_format >= 2 and isinstance(router_state, dict):
        sharded._router = EdgeRouter.from_state(
            method,
            num_shards,
            router_state,
            homes=(
                (vertex, shard_id)
                for shard_id, shard_graph in enumerate(shard_graphs)
                for vertex in shard_graph.vertices()
            ),
        )
    return sharded
