"""Brute-force maximal k-biplex enumeration (test oracle).

Enumerates every pair of vertex subsets and keeps the maximal k-biplexes.
Exponential in the number of vertices, so it is only usable on very small
graphs, but it is an independent, obviously-correct implementation against
which all clever algorithms in this library are validated.
"""

from __future__ import annotations

from itertools import combinations
from typing import List

from ..core.biplex import Biplex, is_k_biplex, is_maximal_k_biplex
from ..graph.bipartite import BipartiteGraph


def enumerate_mbps_bruteforce(graph: BipartiteGraph, k: int) -> List[Biplex]:
    """Return all maximal k-biplexes of ``graph`` by exhaustive search.

    Solutions with an empty side are included when they are maximal (e.g. a
    right vertex set that no left vertex can join), matching the behaviour
    of the reverse-search algorithms.  The all-empty biplex ``(∅, ∅)`` is
    reported only when the graph has no vertices at all.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    left_pool = list(graph.left_vertices())
    right_pool = list(graph.right_vertices())
    solutions: List[Biplex] = []
    for left_size in range(len(left_pool) + 1):
        for left_subset in combinations(left_pool, left_size):
            left_set = set(left_subset)
            for right_size in range(len(right_pool) + 1):
                for right_subset in combinations(right_pool, right_size):
                    right_set = set(right_subset)
                    if not left_set and not right_set and graph.num_vertices > 0:
                        continue
                    if not is_k_biplex(graph, left_set, right_set, k):
                        continue
                    if is_maximal_k_biplex(graph, left_set, right_set, k):
                        solutions.append(Biplex.of(left_set, right_set))
    return solutions

