"""δ-quasi-biclique mining.

A δ-quasi-biclique (δ-QB) is an induced subgraph ``(L', R')`` in which every
left vertex misses at most ``δ · |R'|`` right vertices and every right
vertex misses at most ``δ · |L'|`` left vertices (Liu et al., COCOON 2008).
Unlike k-biplexes the structure is *not* hereditary — removing vertices can
break the relative thresholds — so maximal δ-QBs cannot be enumerated with
reverse search, and exact enumeration is only feasible on tiny graphs.

The paper uses δ-QBs as one of the competitor structures in the
fraud-detection case study (Figure 13).  Accordingly this module provides
the δ-QB predicate and a greedy seed-and-expand *finder* for the
case-study scale, which grows δ-QBs from maximal k-biplex seeds.  It
substitutes for exact mining: the original study also relies on heuristic
mining for δ-QBs, and the precision/recall trade-off of the structure
definition — many disconnections allowed when the subgraph is large — is
fully preserved.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Set

from ..core.biplex import Biplex
from ..graph.bipartite import BipartiteGraph
from ..graph.protocol import iter_bits, mask_of


def is_quasi_biclique(
    graph: BipartiteGraph, left: Iterable[int], right: Iterable[int], delta: float
) -> bool:
    """Whether ``(left, right)`` is a δ-quasi-biclique.

    Empty sides are accepted (the constraints hold vacuously).  The
    per-vertex miss counts are word-parallel popcounts.
    """
    left_mask = mask_of(left)
    right_mask = mask_of(right)
    left_budget = delta * right_mask.bit_count()
    right_budget = delta * left_mask.bit_count()
    for v in iter_bits(left_mask):
        if (right_mask & ~graph.adj_left_mask(v)).bit_count() > left_budget:
            return False
    for u in iter_bits(right_mask):
        if (left_mask & ~graph.adj_right_mask(u)).bit_count() > right_budget:
            return False
    return True


def quasi_biclique_seed_k(delta: float, theta_left: int, theta_right: int) -> int:
    """The k-biplex parameter used to seed the greedy δ-QB finder.

    A maximal k-biplex with ``|L'| ≥ θ_L`` and ``|R'| ≥ θ_R`` is *guaranteed*
    to already be a δ-QB exactly when ``k ≤ δ · |R'|`` and ``k ≤ δ · |L'|``
    for every admissible seed, i.e. when ``k ≤ δ · min(θ_L, θ_R)`` (the side
    sizes only grow beyond their thresholds, and the δ-QB miss budgets are
    relative while k is absolute).  We therefore seed with the largest such
    k, ``⌊δ · min(θ_L, θ_R)⌋``, clamped to at least 1 so the seed enumeration
    is never degenerate.  Only the clamped case can produce seeds that
    violate the δ-QB budgets — which is what the shrink-repair step of
    :func:`find_quasi_bicliques_greedy` is for.
    """
    return max(1, math.floor(delta * min(theta_left, theta_right)))


def find_quasi_bicliques_greedy(
    graph: BipartiteGraph,
    delta: float,
    theta_left: int,
    theta_right: int,
    seeds: Optional[List[Biplex]] = None,
    max_structures: int = 200,
) -> List[Biplex]:
    """Greedy seed-and-expand δ-QB finder for case-study scale graphs.

    Each seed (by default the maximal k-biplexes with
    ``k = max(1, ⌊δ · min(θ_L, θ_R)⌋)`` found by iTraversal — see
    :func:`quasi_biclique_seed_k` — unless explicit ``seeds`` are passed in
    by the caller) is expanded greedily: vertices whose addition keeps the
    δ-QB property are added, preferring high-degree vertices, until no
    further addition is possible.  Structures below the size thresholds are
    discarded, duplicates removed.
    """
    if seeds is None:
        from ..core.itraversal import ITraversal

        k_seed = quasi_biclique_seed_k(delta, theta_left, theta_right)
        seeds = ITraversal(
            graph, k_seed, theta_left=theta_left, theta_right=theta_right,
            max_results=max_structures,
        ).enumerate()

    results: List[Biplex] = []
    seen: Set[Biplex] = set()
    for seed in seeds[:max_structures]:
        repaired = _shrink_to_quasi_biclique(graph, set(seed.left), set(seed.right), delta)
        if repaired is None:
            continue
        expanded = _expand_quasi_biclique(graph, set(repaired[0]), set(repaired[1]), delta)
        if len(expanded.left) < theta_left or len(expanded.right) < theta_right:
            continue
        if not is_quasi_biclique(graph, expanded.left, expanded.right, delta):
            continue
        if expanded not in seen:
            seen.add(expanded)
            results.append(expanded)
    return results


def _shrink_to_quasi_biclique(
    graph: BipartiteGraph, left: Set[int], right: Set[int], delta: float
):
    """Repair a seed by removing its worst-violating vertices until it is a δ-QB.

    Returns ``(left, right)`` or ``None`` when a side empties out before the
    property is restored.  k-biplex seeds usually violate the δ-QB budgets
    only mildly (the budgets are relative while k is absolute), so a handful
    of removals suffices.
    """
    while left and right:
        if is_quasi_biclique(graph, left, right, delta):
            return left, right
        worst_vertex = None
        worst_side = None
        worst_excess = 0.0
        left_budget = delta * len(right)
        right_budget = delta * len(left)
        for v in left:
            excess = graph.missing_left(v, right) - left_budget
            if excess > worst_excess:
                worst_excess, worst_vertex, worst_side = excess, v, "L"
        for u in right:
            excess = graph.missing_right(u, left) - right_budget
            if excess > worst_excess:
                worst_excess, worst_vertex, worst_side = excess, u, "R"
        if worst_vertex is None:
            return left, right
        if worst_side == "L":
            left.discard(worst_vertex)
        else:
            right.discard(worst_vertex)
    return None


def _expand_quasi_biclique(
    graph: BipartiteGraph, left: Set[int], right: Set[int], delta: float
) -> Biplex:
    """Greedily add vertices (highest degree first) while the δ-QB property holds."""
    left_candidates = sorted(
        (v for v in graph.left_vertices() if v not in left),
        key=graph.degree_of_left,
        reverse=True,
    )
    right_candidates = sorted(
        (u for u in graph.right_vertices() if u not in right),
        key=graph.degree_of_right,
        reverse=True,
    )
    changed = True
    while changed:
        changed = False
        for v in left_candidates:
            if v not in left and is_quasi_biclique(graph, left | {v}, right, delta):
                left.add(v)
                changed = True
        for u in right_candidates:
            if u not in right and is_quasi_biclique(graph, left, right | {u}, delta):
                right.add(u)
                changed = True
    return Biplex.of(left, right)
