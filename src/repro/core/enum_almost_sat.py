"""The EnumAlmostSat procedure (Section 4 of the paper).

Given a solution ``H = (L, R)`` and a left vertex ``v ∉ L``, the
*almost-satisfying graph* is the induced subgraph ``(L ∪ {v}, R)``.
EnumAlmostSat enumerates all *local solutions* within it: induced subgraphs
``(L' ∪ {v}, R')`` with ``L' ⊆ L`` and ``R' ⊆ R`` that

1. contain ``v``,
2. are k-biplexes, and
3. are maximal w.r.t. the almost-satisfying graph (no vertex of
   ``(L ∪ {v}) ∪ R`` outside the subgraph can be added while keeping the
   k-biplex property).

Four refinement levels are provided, matching the paper's Figure 12
comparison:

* ``R1.0`` — only enumerate subsets of ``R_enum`` (the right vertices *not*
  adjacent to ``v``) of size at most ``k``; the vertices adjacent to ``v``
  (``R_keep``) belong to every local solution (Lemma 4.1).
* ``R2.0`` — additionally prune subsets ``R''`` with ``|R''| < k`` that do
  not contain all of ``R¹_enum`` (Lemma 4.2).
* ``L1.0`` — only enumerate removal sets from ``L_remo`` (left vertices with
  at least one non-neighbour in ``R²''``) of size at most ``|R²''|``
  (Lemma 4.3 and the discussion in Section 4.3).
* ``L2.0`` — visit removal sets in ascending size order and prune supersets
  of removal sets that already produced a local solution (Section 4.4).

Two reference implementations are included for testing and for the Figure 12
baseline: a naive power-set enumeration and the *Inflation* variant that
inflates the almost-satisfying graph and enumerates local maximal
``(k+1)``-plexes of the resulting general graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..graph.bipartite import BipartiteGraph
from ..graph.protocol import iter_bits, mask_of
from .biplex import (
    Biplex,
    can_add_left_masked,
    can_add_right_masked,
    is_k_biplex,
    is_maximal_k_biplex,
)


@dataclass(frozen=True)
class EnumAlmostSatConfig:
    """Configuration of the EnumAlmostSat refinements.

    Attributes
    ----------
    right_refinement:
        1 for "R1.0", 2 for "R2.0" (default, strictly prunes more).
    left_refinement:
        1 for "L1.0", 2 for "L2.0" (default).
    """

    right_refinement: int = 2
    left_refinement: int = 2

    def __post_init__(self) -> None:
        if self.right_refinement not in (1, 2):
            raise ValueError("right_refinement must be 1 or 2")
        if self.left_refinement not in (1, 2):
            raise ValueError("left_refinement must be 1 or 2")

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``"L2.0+R2.0"`` as used in Figure 12."""
        return f"L{self.left_refinement}.0+R{self.right_refinement}.0"


DEFAULT_CONFIG = EnumAlmostSatConfig()


def enum_local_solutions(
    graph: BipartiteGraph,
    left: Set[int],
    right: Set[int],
    new_left_vertex: int,
    k: int,
    config: EnumAlmostSatConfig = DEFAULT_CONFIG,
    min_right_size: int = 0,
    solution_right_missing: Optional[Dict[int, int]] = None,
    solution_left_mask: Optional[int] = None,
) -> Iterator[Biplex]:
    """Enumerate all local solutions of the almost-satisfying graph ``(L ∪ {v}, R)``.

    Parameters
    ----------
    graph:
        The full input bipartite graph.
    left, right:
        The vertex sets of the current solution ``H = (L, R)``, which must be
        a k-biplex.
    new_left_vertex:
        The left vertex ``v ∉ L`` being added to form the almost-satisfying
        graph.
    k:
        The biplex parameter.
    config:
        Which refinement levels to use (Algorithm 3 corresponds to the
        default ``L2.0+R2.0``).
    min_right_size:
        When positive, local solutions whose right side is smaller than this
        threshold are pruned *before* the left-side enumeration.  This is the
        "local solution pruning" rule of the large-MBP extension
        (Section 5); 0 disables it.
    solution_right_missing:
        Optional precomputed ``δ̄(u, L)`` for every ``u ∈ R``.  The values
        depend only on the solution ``(L, R)``, not on ``v``, so a caller
        that forms many almost-satisfying graphs from the same solution (the
        traversal engines) computes them once and passes them in.
    solution_left_mask:
        Optional packed form of ``left``; like ``solution_right_missing`` it
        depends only on the solution, so the traversal engines compute it
        once per solution.

    Yields
    ------
    Biplex
        Each local solution ``(L' ∪ {v}, R')``.  Solutions are distinct.
    """
    v = new_left_vertex
    left = set(left)
    right = set(right)
    if v in left:
        raise ValueError("the new vertex must not already belong to the solution")

    left_mask = mask_of(left) if solution_left_mask is None else solution_left_mask

    v_adjacency = graph.neighbors_of_left(v)
    r_keep = right & v_adjacency
    r_enum = sorted(right - v_adjacency)

    # Miss counts of the enumerable right vertices w.r.t. the *current* left
    # side; the traversal engines normally pass them in precomputed, so
    # this path serves direct callers.
    if solution_right_missing is not None:
        right_missing = solution_right_missing
    else:
        right_missing = {
            u: (left_mask & ~graph.adj_right_mask(u)).bit_count() for u in r_enum
        }
    r1_enum = [u for u in r_enum if right_missing[u] <= k - 1]
    r2_enum = [u for u in r_enum if right_missing[u] >= k]
    r_enum_set = set(r_enum)

    for r_double_prime in _enumerate_right_subsets(r1_enum, r2_enum, k, config.right_refinement):
        r_prime = set(r_keep)
        r_prime.update(r_double_prime)
        if min_right_size and len(r_prime) < min_right_size:
            continue
        r2_selected = [u for u in r_double_prime if right_missing.get(u, 0) >= k]
        yield from _enumerate_left_removals(
            graph,
            left,
            r_prime,
            set(r_double_prime),
            r2_selected,
            r_enum_set,
            right_missing,
            v,
            k,
            config.left_refinement,
            left_mask=left_mask,
        )


def _enumerate_right_subsets(
    r1_enum: Sequence[int],
    r2_enum: Sequence[int],
    k: int,
    right_refinement: int,
) -> Iterator[Tuple[int, ...]]:
    """Yield the subsets ``R''`` of ``R_enum`` to consider (size ≤ k).

    With ``right_refinement == 2`` the Lemma 4.2 pruning applies: a subset of
    size strictly below ``k`` is only kept when it contains all of
    ``R¹_enum``.
    """
    r1_set = set(r1_enum)
    pool = list(r1_enum) + list(r2_enum)
    for size in range(min(k, len(pool)) + 1):
        for subset in combinations(pool, size):
            if right_refinement >= 2 and size < k and not r1_set.issubset(subset):
                continue
            yield subset


def _enumerate_left_removals(
    graph: BipartiteGraph,
    left: Set[int],
    r_prime: Set[int],
    r_double_prime: Set[int],
    r2_selected: Sequence[int],
    r_enum_set: Set[int],
    right_missing: Dict[int, int],
    v: int,
    k: int,
    left_refinement: int,
    left_mask: int,
) -> Iterator[Biplex]:
    """Enumerate removal sets from ``L`` for a fixed right side ``R'``.

    ``r2_selected`` are the chosen right vertices that currently miss ``k``
    vertices of ``L`` (and also miss ``v``), i.e. the vertices that force at
    least one left removal each.  The verification of each candidate is
    incremental (see :func:`_is_local_solution_masked`): only the vertices
    whose constraints can actually have changed are re-checked, on packed
    vertex sets (``left_mask`` is ``left`` packed).
    """
    r_prime_mask = mask_of(r_prime)

    if not r2_selected:
        # (L ∪ {v}, R') is already a k-biplex; the only candidate removal is ∅.
        if _is_local_solution_masked(
            graph,
            left_mask | (1 << v),
            r_prime_mask,
            0,
            r_double_prime,
            r_enum_set,
            right_missing,
            k,
        ):
            yield Biplex.of(left | {v}, r_prime)
        return

    r2_set = set(r2_selected)
    # L_remo: left vertices with at least one non-neighbour in R''₂
    # (Section 4.3).  Collected from the R''₂ side, which is at most k
    # vertices, instead of scanning all of L.
    removal_candidates_mask = 0
    for u in r2_set:
        removal_candidates_mask |= left_mask & ~graph.adj_right_mask(u)
    removal_pool = list(iter_bits(removal_candidates_mask))
    budget = min(len(r2_selected), k, len(removal_pool))
    successful_removals: List[Set[int]] = []
    for size in range(budget + 1):
        for removal in combinations(removal_pool, size):
            removal_set = set(removal)
            if left_refinement >= 2 and any(
                prior <= removal_set for prior in successful_removals
            ):
                continue
            removal_mask = mask_of(removal)
            if _is_local_solution_masked(
                graph,
                (left_mask & ~removal_mask) | (1 << v),
                r_prime_mask,
                removal_mask,
                r_double_prime,
                r_enum_set,
                right_missing,
                k,
            ):
                successful_removals.append(removal_set)
                yield Biplex.of((left - removal_set) | {v}, r_prime)


def _is_local_solution_masked(
    graph,
    candidate_left_mask: int,
    candidate_right_mask: int,
    removal_mask: int,
    r_double_prime: Set[int],
    r_enum_set: Set[int],
    right_missing: Dict[int, int],
    k: int,
) -> bool:
    """Incremental check that a candidate ``(L' ∪ {v}, R')`` is a local solution.

    Compared to a from-scratch test, the following facts (all consequences of
    ``(L, R)`` being a k-biplex and of the construction of ``R'``) keep the
    work proportional to ``k`` in the common case:

    * the k-biplex predicate can only fail at the chosen ``R''`` vertices:
      ``v`` misses exactly ``|R''| ≤ k`` vertices, the retained left vertices
      and the ``R_keep`` vertices are below their budgets by heredity, so it
      suffices to check ``δ̄(u, L') + 1 ≤ k`` for ``u ∈ R''``;
    * on the left, only the *removed* vertices can possibly be added back, so
      local maximality on the left is checked against ``removal_mask`` only;
    * on the right, any vertex of ``R \\ R'`` would push ``v`` to
      ``|R''| + 1`` misses, so the right-side maximality check is needed only
      when ``|R''| < k``.

    Every probe is a handful of word-parallel operations on packed vertex
    sets.  The reference (naive) implementation performs the full quadratic
    set-query check; the tests compare the two on random inputs.
    """
    adj_right_mask = graph.adj_right_mask
    # (1) k-biplex predicate, restricted to the vertices that can violate it.
    for u in r_double_prime:
        removed_non_neighbors = (
            (removal_mask & ~adj_right_mask(u)).bit_count() if removal_mask else 0
        )
        if right_missing[u] - removed_non_neighbors + 1 > k:
            return False
    # (2) Left-side local maximality: no removed vertex can be added back.
    for w in iter_bits(removal_mask):
        if can_add_left_masked(graph, candidate_left_mask, candidate_right_mask, w, k):
            return False
    # (3) Right-side local maximality: only possible when v has slack.
    if len(r_double_prime) < k:
        for u in r_enum_set - r_double_prime:
            if can_add_right_masked(graph, candidate_left_mask, candidate_right_mask, u, k):
                return False
    return True


def enum_local_solutions_naive(
    graph: BipartiteGraph,
    left: Set[int],
    right: Set[int],
    new_left_vertex: int,
    k: int,
) -> List[Biplex]:
    """Reference implementation: enumerate every ``(L', R')`` pair explicitly.

    Exponential in ``|L| + |R|``; used as the ground-truth oracle in tests
    and only suitable for very small almost-satisfying graphs.
    """
    v = new_left_vertex
    left_list = sorted(left)
    right_list = sorted(right)
    solutions: List[Biplex] = []
    seen = set()
    left_pool = set(left) | {v}
    for left_size in range(len(left_list) + 1):
        for left_subset in combinations(left_list, left_size):
            candidate_left = set(left_subset) | {v}
            for right_size in range(len(right_list) + 1):
                for right_subset in combinations(right_list, right_size):
                    candidate_right = set(right_subset)
                    if not is_k_biplex(graph, candidate_left, candidate_right, k):
                        continue
                    if not is_maximal_k_biplex(
                        graph,
                        candidate_left,
                        candidate_right,
                        k,
                        candidate_left=left_pool,
                        candidate_right=right,
                    ):
                        continue
                    solution = Biplex.of(candidate_left, candidate_right)
                    if solution not in seen:
                        seen.add(solution)
                        solutions.append(solution)
    return solutions


def enum_local_solutions_inflation(
    graph: BipartiteGraph,
    left: Set[int],
    right: Set[int],
    new_left_vertex: int,
    k: int,
    time_limit: Optional[float] = None,
) -> List[Biplex]:
    """The *Inflation* baseline for EnumAlmostSat (Figure 12).

    The almost-satisfying graph is inflated into a general graph (cliques
    within each side) and local maximal ``(k+1)``-plexes containing ``v``
    are enumerated with the branch-and-bound k-plex enumerator.  The plexes
    translate back to exactly the local solutions of the almost-satisfying
    graph.

    ``time_limit`` (seconds) truncates the underlying plex search: the
    baseline is exponential in the almost-satisfying graph's size, which is
    precisely the behaviour Figure 12 demonstrates, so benchmark drivers cap
    each call instead of waiting for it.
    """
    # Imported lazily to keep the baselines package optional at import time.
    from ..baselines.kplex import enumerate_maximal_kplexes
    from ..graph.general import Graph

    v = new_left_vertex
    left_ids = sorted(left)
    right_ids = sorted(right)
    # Build the inflated graph of the almost-satisfying subgraph with compact
    # ids: left vertices (including v) come first, then the right vertices.
    local_left = left_ids + [v]
    left_index = {vertex: index for index, vertex in enumerate(local_left)}
    right_index = {vertex: len(local_left) + index for index, vertex in enumerate(right_ids)}
    inflated = Graph(len(local_left) + len(right_ids))
    for i in range(len(local_left)):
        for j in range(i + 1, len(local_left)):
            inflated.add_edge(i, j)
    for i in range(len(right_ids)):
        for j in range(i + 1, len(right_ids)):
            inflated.add_edge(len(local_left) + i, len(local_left) + j)
    for original_left in local_left:
        adjacency = graph.neighbors_of_left(original_left)
        for original_right in right_ids:
            if original_right in adjacency:
                inflated.add_edge(left_index[original_left], right_index[original_right])

    v_local = left_index[v]
    solutions: List[Biplex] = []
    for plex in enumerate_maximal_kplexes(
        inflated, k + 1, must_contain=v_local, time_limit=time_limit
    ):
        chosen_left = {local_left[i] for i in plex if i < len(local_left)}
        chosen_right = {right_ids[i - len(local_left)] for i in plex if i >= len(local_left)}
        solutions.append(Biplex.of(chosen_left, chosen_right))
    return solutions


def count_local_solutions(
    graph: BipartiteGraph,
    left: Set[int],
    right: Set[int],
    new_left_vertex: int,
    k: int,
    config: EnumAlmostSatConfig = DEFAULT_CONFIG,
) -> int:
    """Convenience helper: the number of local solutions (used by benchmarks)."""
    return sum(
        1 for _ in enum_local_solutions(graph, left, right, new_left_vertex, k, config)
    )
