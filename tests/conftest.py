"""Shared fixtures: paper figures, zoo graphs, and small random instances."""

from __future__ import annotations

import weakref

import pytest

from repro.datasets.paper_figures import load_all_figures, load_figure
from repro.datasets.zoo import zoo_graph
from repro.graph.builders import path_pattern, triangle_pattern
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.pattern import Pattern
from repro.mining.dynamic import DynamicMiner


@pytest.fixture(scope="session")
def all_figures():
    return load_all_figures()


@pytest.fixture
def fig2():
    return load_figure("fig2")


@pytest.fixture
def fig4():
    return load_figure("fig4")


@pytest.fixture
def fig6():
    return load_figure("fig6")


@pytest.fixture
def small_path_graph() -> LabeledGraph:
    """The Fig. 4 path: 1(a)-2(b)-3(b)-4(a)."""
    return LabeledGraph(
        vertices=[(1, "a"), (2, "b"), (3, "b"), (4, "a")],
        edges=[(1, 2), (2, 3), (3, 4)],
        name="small-path",
    )


@pytest.fixture
def uniform_triangle() -> Pattern:
    """The one-label triangle pattern (|Aut| = 6)."""
    return triangle_pattern("a")


@pytest.fixture
def asymmetric_path() -> Pattern:
    """Path a-b-b (one non-trivial transitive pair in a subpattern)."""
    return path_pattern(["a", "b", "b"])


@pytest.fixture
def fan_graph() -> LabeledGraph:
    return zoo_graph("triangle_fan")


@pytest.fixture
def disjoint_tri_graph() -> LabeledGraph:
    return zoo_graph("disjoint_triangles")


@pytest.fixture
def built_miners(monkeypatch):
    """Every ``DynamicMiner`` built during the test: ``(cache key, weakref)``.

    Weak references only, so a test can still prove the miners are freed.
    """
    built = []
    init = DynamicMiner.__init__

    def recording_init(self, data, spec=None, rebalance=None):
        init(self, data, spec, rebalance)
        built.append((self.spec.cache_key(), weakref.ref(self)))

    monkeypatch.setattr(DynamicMiner, "__init__", recording_init)
    return built
