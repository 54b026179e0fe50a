"""Mining frequent motifs in a synthetic molecular-interaction graph.

The paper's introduction motivates single-graph mining with chemical
compounds and biomolecular structures.  This example builds a synthetic
"molecule-like" labeled graph (carbon/nitrogen/oxygen vertices with planted
ring and chain motifs), then mines it with three different support
measures and shows how the choice of measure changes both the frequent set
and the mining cost.

Run:  python examples/molecule_motifs.py
"""

from repro.analysis import format_table
from repro.datasets import planted_pattern_graph
from repro.graph import cycle_pattern, path_pattern
from repro.mining import MiningSpec, mine_frequent_patterns


def build_molecule_graph():
    """Plant C-N-C chains and C-C-O triangles with moderate welding."""
    chain = path_pattern(["C", "N", "C"], name="C-N-C chain")
    graph = planted_pattern_graph(
        chain,
        num_copies=8,
        overlap_fraction=0.4,
        seed=11,
        name="molecule",
    )
    # Weld some rings onto existing atoms by planting into the same graph:
    ring = cycle_pattern(["C", "C", "O"], name="C-C-O ring")
    ring_graph = planted_pattern_graph(ring, num_copies=5, overlap_fraction=0.3, seed=23)
    offset = graph.num_vertices
    for vertex in ring_graph.vertices():
        graph.add_vertex(vertex + offset, ring_graph.label_of(vertex))
    for u, v in ring_graph.edges():
        graph.add_edge(u + offset, v + offset)
    # A few cross-links between the two regions.
    graph.add_edge(0, offset)
    graph.add_edge(2, offset + 1)
    return graph


def main() -> None:
    graph = build_molecule_graph()
    print(f"molecule graph: {graph.num_vertices} atoms, {graph.num_edges} bonds")
    print(f"label histogram: {graph.label_histogram()}\n")

    rows = []
    results = {}
    spec = MiningSpec(min_support=3, max_pattern_nodes=4, max_pattern_edges=4)
    for measure in ("mni", "mi", "mis"):
        result = mine_frequent_patterns(graph, spec=spec.replace(measure=measure))
        results[measure] = result
        rows.append(
            [
                measure,
                result.num_frequent,
                result.stats.patterns_evaluated,
                result.stats.patterns_pruned,
                result.max_pattern_edges(),
            ]
        )

    print(
        format_table(
            ["measure", "frequent", "evaluated", "pruned", "max edges"],
            rows,
            title="mining the molecule graph (min_support = 3)",
        )
    )

    print(
        "\nMNI over-counts, so it keeps the most patterns; MIS counts only "
        "independent instances, so it prunes hardest:"
    )
    mis_set = set(results["mis"].certificates())
    mni_set = set(results["mni"].certificates())
    print(f"  MIS-frequent is a subset of MNI-frequent: {mis_set <= mni_set}")
    print(f"  patterns frequent under MNI but not MIS: {len(mni_set - mis_set)}")

    print("\nLargest frequent motifs under MIS:")
    largest = [
        fp for fp in results["mis"].frequent
        if fp.num_edges == results["mis"].max_pattern_edges()
    ]
    for fp in largest:
        labels = [fp.pattern.label_of(n) for n in fp.pattern.nodes()]
        print(
            f"  {fp.num_nodes} atoms {labels}, {fp.num_edges} bonds, "
            f"support {fp.support:g} ({fp.num_occurrences} occurrences)"
        )


if __name__ == "__main__":
    main()
