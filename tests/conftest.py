"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import pytest

# Allow running the tests from a source checkout without installing.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.graph import BipartiteGraph, paper_example_graph  # noqa: E402


@pytest.fixture
def example_graph() -> BipartiteGraph:
    """The running example of the paper (Figure 1)."""
    return paper_example_graph()


@pytest.fixture
def tiny_graph() -> BipartiteGraph:
    """A 2 x 3 graph small enough to reason about by hand.

    Edges: v0-{u0,u1}, v1-{u1,u2}.
    """
    return BipartiteGraph(2, 3, edges=[(0, 0), (0, 1), (1, 1), (1, 2)])


@pytest.fixture
def complete_graph() -> BipartiteGraph:
    """A complete 3 x 3 bipartite graph."""
    return BipartiteGraph(3, 3, edges=[(v, u) for v in range(3) for u in range(3)])


@pytest.fixture
def empty_graph() -> BipartiteGraph:
    """A graph with vertices but no edges."""
    return BipartiteGraph(3, 4)


# The shared random-graph helper lives in graph_samples.py (importable from
# test modules without colliding with the benchmarks' conftest).
