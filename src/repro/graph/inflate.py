"""Graph inflation: bipartite graph → general graph.

The inflation baseline (Section 1, Section 6.1 of the paper) turns a
bipartite graph ``G = (L ∪ R, E)`` into a general graph by adding an edge
between every pair of vertices on the same side.  In the inflated graph a
vertex subset ``S = L' ∪ R'`` is a ``(k+1)``-plex exactly when ``(L', R')``
is a k-biplex of the original graph, because every same-side pair is
connected and every vertex therefore only misses its cross-side
non-neighbours plus itself.

Vertex numbering convention for the inflated graph: left vertex ``v``
keeps id ``v`` and right vertex ``u`` becomes ``n_left + u``.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from .bipartite import BipartiteGraph
from .general import Graph


def inflate(graph: BipartiteGraph) -> Graph:
    """Return the inflated general graph of ``graph``.

    The output has ``n_left + n_right`` vertices.  Within-side edges form
    two cliques; cross-side edges are copied from the bipartite graph.

    Warning: the inflated graph has ``Θ(|L|² + |R|²)`` edges, which is the
    very reason the inflation baseline does not scale (the paper reports
    96 k bipartite edges inflating to more than 200 M general edges on the
    Marvel dataset).
    """
    n_left = graph.n_left
    n_right = graph.n_right
    inflated = Graph(n_left + n_right)
    for u in range(n_left):
        for v in range(u + 1, n_left):
            inflated.add_edge(u, v)
    for u in range(n_right):
        for v in range(u + 1, n_right):
            inflated.add_edge(n_left + u, n_left + v)
    for left_vertex, right_vertex in graph.edges():
        inflated.add_edge(left_vertex, n_left + right_vertex)
    return inflated


def inflated_edge_count(graph: BipartiteGraph) -> int:
    """Number of edges the inflated graph would have, without building it."""
    n_left = graph.n_left
    n_right = graph.n_right
    return n_left * (n_left - 1) // 2 + n_right * (n_right - 1) // 2 + graph.num_edges


def split_vertex_set(
    vertex_set: FrozenSet[int], n_left: int
) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Split an inflated-graph vertex set back into ``(left, right)`` ids."""
    left = frozenset(v for v in vertex_set if v < n_left)
    right = frozenset(v - n_left for v in vertex_set if v >= n_left)
    return left, right
