"""Cost-aware vertex orderings for traversal roots and candidate expansion.

BBK-style degeneracy ordering adapted to the bipartite setting: peel the
minimum-degree vertex of *either* side repeatedly; the peel sequence is the
order.  Low-degeneracy vertices come first, so the traversal expands cheap,
sparse anchors before dense hubs — on large sparse graphs the anchors
processed early have small almost-satisfying graphs and the exclusion
prefixes accumulated by the time the hubs are reached prune hard.  The
degree and Γ-score heuristics are cheaper one-shot approximations of the
same idea (Γ-score ranks a vertex by the total degree of its
neighbourhood, a proxy for the cost of scoring its candidate set).

Every strategy returns ``(left_order, right_order)``: permutations of the
respective vertex id ranges, deterministic for a given graph (ties break
by degree, then side, then id).  Orderings never change *what* the
traversal enumerates — only the DFS order and therefore the work — which
is what the prep ablation rows in the benchmarks assert.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Tuple

from ..graph.protocol import iter_bits

Orders = Tuple[List[int], List[int]]

#: Auto-selection thresholds (see :func:`choose_order_strategy`).
AUTO_DENSE_DENSITY = 0.25
AUTO_HUB_SKEW = 4.0


def degeneracy_order(graph) -> Orders:
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


def degree_order(graph) -> Orders:
    """One-shot ascending-degree order per side."""
    left = sorted(range(graph.n_left), key=lambda v: (graph.degree_of_left(v), v))
    right = sorted(range(graph.n_right), key=lambda u: (graph.degree_of_right(u), u))
    return left, right


def gamma_score_order(graph) -> Orders:
    """Ascending Γ-score: total degree of the vertex's neighbourhood.

    The Γ-score of a left vertex ``v`` is ``Σ_{u ∈ Γ(v)} deg(u)`` — the
    number of wedges through ``v``, which bounds how many second-hop
    vertices its almost-satisfying graphs can pull in.
    """
    right_degree = [graph.degree_of_right(u) for u in range(graph.n_right)]
    left_degree = [graph.degree_of_left(v) for v in range(graph.n_left)]

    def left_score(v: int) -> Tuple[int, int, int]:
        return (
            sum(right_degree[u] for u in iter_bits(graph.adj_left_mask(v))),
            left_degree[v],
            v,
        )

    def right_score(u: int) -> Tuple[int, int, int]:
        return (
            sum(left_degree[v] for v in iter_bits(graph.adj_right_mask(u))),
            right_degree[u],
            u,
        )

    left = sorted(range(graph.n_left), key=left_score)
    right = sorted(range(graph.n_right), key=right_score)
    return left, right


def choose_order_strategy(graph) -> str:
    """Pick a concrete strategy from cheap graph-shape statistics.

    One degree pass (no adjacency walks) decides between the three
    hand-picked strategies:

    * **dense** graphs (density ≥ ``AUTO_DENSE_DENSITY``) — degrees are
      near-uniform, so the peel order collapses to the degree order;
      ``degree`` pays the least for the same effect;
    * **hub-skewed** graphs (max degree ≥ ``AUTO_HUB_SKEW`` × mean) —
      ``degeneracy`` is the one strategy whose peel *re-ranks* after each
      removal, pushing the hubs to the back where accumulated exclusion
      prefixes prune them hardest;
    * otherwise (sparse, even degrees) — first-hop degree barely
      differentiates vertices; ``gamma``'s second-hop mass does.
    """
    left_degrees = [graph.degree_of_left(v) for v in range(graph.n_left)]
    right_degrees = [graph.degree_of_right(u) for u in range(graph.n_right)]
    n = graph.n_left + graph.n_right
    m = sum(left_degrees)
    if n == 0 or m == 0:
        return "degree"
    density = m / (graph.n_left * graph.n_right)
    if density >= AUTO_DENSE_DENSITY:
        return "degree"
    mean_degree = 2.0 * m / n
    max_degree = max(max(left_degrees, default=0), max(right_degrees, default=0))
    if max_degree >= AUTO_HUB_SKEW * mean_degree:
        return "degeneracy"
    return "gamma"


def auto_order(graph) -> Orders:
    """Shape-adaptive ordering: :func:`choose_order_strategy`, then run it."""
    return ORDER_STRATEGIES[choose_order_strategy(graph)](graph)


#: Named ordering strategies selectable by :func:`repro.prep.prepare`.
ORDER_STRATEGIES: Dict[str, Callable[[object], Orders]] = {
    "degeneracy": degeneracy_order,
    "degree": degree_order,
    "gamma": gamma_score_order,
}
# Registered after the dict exists: ``auto`` dispatches *into* the table.
ORDER_STRATEGIES["auto"] = auto_order
