"""Maximal k-plex enumeration on general graphs.

A *k-plex* of a general graph is a vertex set ``S`` in which every vertex is
adjacent to at least ``|S| - k`` members of ``S`` — equivalently, every
vertex misses at most ``k`` members of ``S`` *counting itself* (the
convention of Berlowitz et al., which the paper follows).  The property is
hereditary, so maximal k-plexes can be enumerated with the classic
binary branch-and-bound over an (include / exclude) set-enumeration tree.

This module is the stand-in for FaPlexen (Zhou et al., AAAI 2020), the
state-of-the-art maximal k-plex enumerator that the paper uses as the
engine of its graph-inflation baseline: our enumerator plays the same
algorithmic role (and has the same exponential worst case on the dense
inflated graphs, which is the behaviour the evaluation demonstrates).

The ``_fits`` / ``_add`` hot loop runs on per-vertex *non-neighbour masks*
built from the graph's adjacency masks: the vertices of the current plex
missed by a candidate are found with one ``&`` and a popcount instead of a
membership scan, and only their (at most ``k``) bits are walked.

:func:`enumerate_maximal_kplexes` is the one entry: it returns the plexes
together with whether a ``max_results`` or ``time_limit`` cap cut the
search, so no caller can take a cut list for a complete one.  The
membership test is :meth:`~repro.graph.general.Graph.subgraph_is_kplex`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from ..graph.general import Graph


class _SearchLimit(Exception):
    """Raised internally when a time or result limit is hit."""


def enumerate_maximal_kplexes(
    graph: Graph,
    k: int,
    must_contain: Optional[int] = None,
    max_results: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> Tuple[List[Set[int]], bool]:
    """Enumerate the maximal k-plexes of ``graph``; return them and whether the search was cut.

    Parameters
    ----------
    graph:
        The general graph.
    k:
        Plex parameter; every vertex of a plex misses at most ``k`` members
        of the plex, itself included.  Must be at least 1.
    must_contain:
        When given, only maximal k-plexes containing this vertex are
        reported (they are still maximal w.r.t. the whole graph).
    max_results, time_limit:
        Optional limits; when one is hit, the search stops.

    Returns
    -------
    (list of sets, bool)
        Each maximal k-plex found, as a vertex set, without duplicates;
        and ``True`` exactly when ``max_results`` or ``time_limit`` stopped
        the search, i.e. when the list may be incomplete.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    enumerator = _KPlexEnumerator(graph, k, max_results=max_results, time_limit=time_limit)
    results = enumerator.run(must_contain=must_contain)
    return results, enumerator.truncated


class _KPlexEnumerator:
    """Binary include/exclude branch-and-bound for maximal k-plexes."""

    def __init__(
        self,
        graph: Graph,
        k: int,
        max_results: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> None:
        self.graph = graph
        self.k = k
        self.max_results = max_results
        self.time_limit = time_limit
        self.results: List[Set[int]] = []
        self.truncated = False
        self._start = 0.0
        # One precomputed non-neighbour mask per vertex (excluding the
        # vertex itself) turns the ``_fits`` / ``_add`` scans into
        # ``current_mask & non_adj[v]`` plus a popcount.
        full = graph.full_mask
        self._non_adj = [full & ~graph.adj_mask(v) & ~(1 << v) for v in graph.vertices()]

    def run(self, must_contain: Optional[int] = None) -> List[Set[int]]:
        self.results = []
        self.truncated = False
        self._start = time.perf_counter()
        vertices = list(self.graph.vertices())
        if not vertices:
            return []
        if must_contain is None:
            current: Set[int] = set()
            current_mask = 0
            misses: Dict[int, int] = {}
            candidates = vertices
        else:
            current = {must_contain}
            current_mask = 1 << must_contain
            misses = {must_contain: 1}  # a vertex always misses itself
            candidates = [
                v
                for v in vertices
                if v != must_contain and self._fits(current_mask, misses, v)
            ]
        try:
            self._branch(current, current_mask, misses, candidates, [])
        except _SearchLimit:
            self.truncated = True
        return self.results

    # ------------------------------------------------------------------ #
    def _branch(
        self,
        current: Set[int],
        current_mask: int,
        misses: Dict[int, int],
        candidates: List[int],
        excluded: List[int],
    ) -> None:
        """Explore the include/exclude tree below the node ``(current, candidates, excluded)``.

        Exclude branches are unrolled into the loop (each iteration moves the
        pivot into the local excluded list), so the recursion depth is bounded
        by the size of the largest k-plex rather than by ``|V|``.
        """
        self._check_limits()
        local_excluded = list(excluded)
        for index, pivot in enumerate(candidates):
            if self._fits(current_mask, misses, pivot):
                new_current = set(current)
                new_mask = current_mask | (1 << pivot)
                new_misses = dict(misses)
                self._add(new_current, current_mask, new_misses, pivot)
                remaining = candidates[index + 1 :]
                new_candidates = [
                    v for v in remaining if self._fits(new_mask, new_misses, v)
                ]
                new_excluded = [
                    x for x in local_excluded if self._fits(new_mask, new_misses, x)
                ]
                self._branch(new_current, new_mask, new_misses, new_candidates, new_excluded)
            local_excluded.append(pivot)
        # All candidates excluded: ``current`` is maximal unless an excluded
        # vertex could still join it.
        if not any(self._fits(current_mask, misses, x) for x in local_excluded):
            self._emit(set(current))

    def _fits(self, current_mask: int, misses: Dict[int, int], vertex: int) -> bool:
        """Whether ``current ∪ {vertex}`` is still a k-plex."""
        missed = current_mask & self._non_adj[vertex]
        if missed.bit_count() + 1 > self.k:  # + the vertex itself
            return False
        while missed:
            low = missed & -missed
            if misses[low.bit_length() - 1] + 1 > self.k:
                return False
            missed ^= low
        return True

    def _add(
        self, current: Set[int], current_mask: int, misses: Dict[int, int], vertex: int
    ) -> None:
        missed = current_mask & self._non_adj[vertex]
        vertex_misses = 1 + missed.bit_count()
        while missed:
            low = missed & -missed
            misses[low.bit_length() - 1] += 1
            missed ^= low
        current.add(vertex)
        misses[vertex] = vertex_misses

    def _emit(self, plex: Set[int]) -> None:
        self.results.append(plex)
        if self.max_results is not None and len(self.results) >= self.max_results:
            raise _SearchLimit

    def _check_limits(self) -> None:
        if self.time_limit is not None and time.perf_counter() - self._start > self.time_limit:
            raise _SearchLimit


def is_maximal_kplex(graph: Graph, vertex_set: Set[int], k: int) -> bool:
    """Whether ``vertex_set`` is a k-plex to which no vertex can be added."""
    if not graph.subgraph_is_kplex(vertex_set, k):
        return False
    members = set(vertex_set)
    for vertex in graph.vertices():
        if vertex in members:
            continue
        if graph.subgraph_is_kplex(members | {vertex}, k):
            return False
    return True
