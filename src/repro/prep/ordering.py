"""The candidate ordering of ``prep="core+order"``: a bipartite degeneracy peel.

BBK-style degeneracy ordering adapted to the bipartite setting: peel the
minimum-degree vertex of *either* side repeatedly; the peel sequence is the
order.  Low-degeneracy vertices come first, so the traversal expands cheap,
sparse anchors before dense hubs — on large sparse graphs the anchors
processed early have small almost-satisfying graphs and the exclusion
prefixes accumulated by the time the hubs are reached prune hard.

:func:`degeneracy_order` returns ``(left_order, right_order)``:
permutations of the respective vertex id ranges, deterministic for a given
graph (ties break by degree, then side, then id).  The order never changes
*what* the traversal enumerates — only the DFS order and therefore the
work — which is what the prep ablation rows in the benchmarks assert.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from ..graph.protocol import iter_bits


def degeneracy_order(graph) -> Tuple[List[int], List[int]]:
    """Two-sided min-degree peel (bipartite degeneracy ordering)."""
    left_degree = [graph.degree_of_left(v) for v in range(graph.n_left)]
    right_degree = [graph.degree_of_right(u) for u in range(graph.n_right)]
    # Lazy-deletion heap over both sides; stale entries (their recorded
    # degree no longer matches) are skipped on pop.
    heap = [(degree, 0, v) for v, degree in enumerate(left_degree)]
    heap += [(degree, 1, u) for u, degree in enumerate(right_degree)]
    heapq.heapify(heap)
    left_alive = [True] * graph.n_left
    right_alive = [True] * graph.n_right
    left_order: List[int] = []
    right_order: List[int] = []
    while heap:
        degree, side, vertex = heapq.heappop(heap)
        if side == 0:
            if not left_alive[vertex] or degree != left_degree[vertex]:
                continue
            left_alive[vertex] = False
            left_order.append(vertex)
            for u in iter_bits(graph.adj_left_mask(vertex)):
                if right_alive[u]:
                    right_degree[u] -= 1
                    heapq.heappush(heap, (right_degree[u], 1, u))
        else:
            if not right_alive[vertex] or degree != right_degree[vertex]:
                continue
            right_alive[vertex] = False
            right_order.append(vertex)
            for v in iter_bits(graph.adj_right_mask(vertex)):
                if left_alive[v]:
                    left_degree[v] -= 1
                    heapq.heappush(heap, (left_degree[v], 0, v))
    return left_order, right_order
