"""(α, β)-core computation on bipartite graphs.

The (α, β)-core of a bipartite graph is the (unique) maximal vertex set in
which every remaining left vertex has degree at least ``α`` and every
remaining right vertex has degree at least ``β`` *within the set*.  The paper
uses it in two places:

* as a competitor cohesive structure in the fraud-detection case study
  (Figure 13), and
* as a preprocessing step for large-MBP enumeration: every MBP whose two
  sides both have size at least ``θ`` is contained in the
  ``(θ − k, θ − k)``-core, so the input graph can be shrunk before running
  the enumeration (Section 6.1, Figure 10).

The implementation is the standard peeling algorithm: repeatedly delete any
vertex violating its degree constraint; the result is order-independent.
The alive sets are bitmasks and the degree updates walk only the set bits
of ``adjacency & alive``.
"""

from __future__ import annotations

from collections import deque
from typing import Set, Tuple

from .bipartite import BipartiteGraph


def alpha_beta_core(graph: BipartiteGraph, alpha: int, beta: int) -> Tuple[Set[int], Set[int]]:
    """Return the vertex sets ``(left, right)`` of the (α, β)-core.

    ``alpha`` constrains left-vertex degrees and ``beta`` constrains
    right-vertex degrees.  Either set may be empty.  Values of 0 or below
    impose no constraint on that side.
    """
    left_alive = (1 << graph.n_left) - 1
    right_alive = (1 << graph.n_right) - 1
    left_removed: list = []
    right_removed: list = []
    left_degree = [len(graph.neighbors_of_left(v)) for v in range(graph.n_left)]
    right_degree = [len(graph.neighbors_of_right(u)) for u in range(graph.n_right)]

    queue = deque()
    for v, degree in enumerate(left_degree):
        if degree < alpha:
            queue.append(("L", v))
    for u, degree in enumerate(right_degree):
        if degree < beta:
            queue.append(("R", u))

    while queue:
        side, vertex = queue.popleft()
        bit = 1 << vertex
        if side == "L":
            if not left_alive & bit:
                continue
            left_alive ^= bit
            left_removed.append(vertex)
            survivors = graph.adj_left_mask(vertex) & right_alive
            while survivors:
                low = survivors & -survivors
                u = low.bit_length() - 1
                right_degree[u] -= 1
                if right_degree[u] == beta - 1:
                    queue.append(("R", u))
                survivors ^= low
        else:
            if not right_alive & bit:
                continue
            right_alive ^= bit
            right_removed.append(vertex)
            survivors = graph.adj_right_mask(vertex) & left_alive
            while survivors:
                low = survivors & -survivors
                v = low.bit_length() - 1
                left_degree[v] -= 1
                if left_degree[v] == alpha - 1:
                    queue.append(("L", v))
                survivors ^= low
    # Materialising the alive sets from the removal log is O(n); walking the
    # (potentially very wide) alive masks bit-by-bit would be O(n² / 64).
    return (
        set(range(graph.n_left)).difference(left_removed),
        set(range(graph.n_right)).difference(right_removed),
    )


def alpha_beta_core_subgraph(
    graph: BipartiteGraph, alpha: int, beta: int
) -> Tuple[BipartiteGraph, list, list]:
    """Return the induced subgraph of the (α, β)-core plus id mappings.

    The mappings are ``new id → original id`` lists for the left and right
    side respectively, as produced by
    :meth:`BipartiteGraph.induced_subgraph_with_mapping`.
    """
    left_core, right_core = alpha_beta_core(graph, alpha, beta)
    return graph.induced_subgraph_with_mapping(left_core, right_core)


def theta_core_for_large_mbps(
    graph: BipartiteGraph, k: int, theta: int
) -> Tuple[BipartiteGraph, list, list]:
    """Shrink ``graph`` to the ``(θ − k, θ − k)``-core.

    Every maximal k-biplex with both side sizes at least ``θ`` lies inside
    this core: each of its left vertices connects at least ``θ − k`` right
    vertices of the biplex (and vice versa), and peeling never removes a
    vertex whose degree constraint is met within a surviving subgraph.
    """
    bound = max(theta - k, 0)
    return alpha_beta_core_subgraph(graph, bound, bound)
