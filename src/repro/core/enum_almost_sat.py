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

The local solutions of ``(L ∪ {v}, R)`` are ``(L' ∪ {v}, R')`` over pairs
``(L', R')`` that depend on ``v`` only through ``N(v) ∩ R``, the anchor's
*type*, so the traversal engine shares one :class:`LocalSolutionTable`
among the anchors of an expansion: each type's right sides and left
removals are built once.

Two reference implementations are included for testing and for the Figure 12
baseline: a naive power-set enumeration and the *Inflation* variant, which
inflates the almost-satisfying graph with :func:`repro.graph.inflate.inflate`
(the FaPlexen baseline's inflation) and enumerates its maximal
``(k+1)``-plexes containing ``v``.  The inflation variant is also
bTraversal's ``local_enumeration="inflation"`` (Figure 7's baseline); it
reports whether its time cap cut the search, and the engine ends the run
on a cut call rather than use a partial list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..graph.bipartite import BipartiteGraph
from ..graph.inflate import inflate, split_vertex_set
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


class LocalSolutionTable:
    """EnumAlmostSat's work for one solution ``(L, R)``, shared by its anchors.

    Call ``N(v) ∩ R`` the *type* of an anchor ``v``.  The local solutions of
    ``(L ∪ {v}, R)`` are ``(L' ∪ {v}, R')`` over a list of ``(L', R')``
    pairs that depends on ``v`` only through its type (see
    :func:`enum_local_solutions`), so one table serves every anchor of an
    expansion.  ``right_sides`` maps a type to its right sides ``R'`` in
    enumeration order, each a list ``[R', cover, lefts, R'', R_enum \\ R'']``:

    * ``cover`` is the left vertices adjacent to all of ``R'`` (``-1``,
      all of them, when ``R'`` is empty): an exclusion prefix that meets
      it skips ``R'``;
    * ``lefts`` is the tuple of left sides ``L'`` (as masks, ``v``
      removed), built at the first anchor of the type that does not skip
      ``R'`` and ``None`` until then;
    * the last two items are what that build reads.

    ``right_missing`` holds ``δ̄(u, L)`` for every ``u ∈ R``.  A table is
    valid for one ``(graph, L, R, k, config, min_right_size)``: the
    traversal engine keeps one per expansion, in the frame of its
    ``_children`` generator, and every other caller gets a fresh one per
    call.
    """

    __slots__ = ("right_missing", "right_sides")

    def __init__(self, graph: BipartiteGraph, left_mask: int, right_mask: int) -> None:
        adj_right_mask = graph.adj_right_mask
        self.right_missing: Dict[int, int] = {
            u: (left_mask & ~adj_right_mask(u)).bit_count() for u in iter_bits(right_mask)
        }
        self.right_sides: Dict[int, List[list]] = {}


def enum_local_solutions(
    graph: BipartiteGraph,
    left: Union[int, Iterable[int]],
    right: Union[int, Iterable[int]],
    new_left_vertex: int,
    k: int,
    config: EnumAlmostSatConfig = DEFAULT_CONFIG,
    min_right_size: int = 0,
    exclusion: int = 0,
    stats=None,
    table: Optional[LocalSolutionTable] = None,
) -> Iterator[Biplex]:
    """Enumerate all local solutions of the almost-satisfying graph ``(L ∪ {v}, R)``.

    Parameters
    ----------
    graph:
        The full input bipartite graph.
    left, right:
        The vertex sets of the current solution ``H = (L, R)``, which must be
        a k-biplex: vertex masks (the traversal engines' form) or iterables
        of ids, which are packed once here.
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
    exclusion:
        A mask of left ids (the exclusion strategy's processed anchors,
        Section 3.5).  Every right side ``R'`` whose vertices are all
        adjacent to one of them is skipped before its left removals are
        enumerated; 0 (the default) skips nothing.  Only a caller that
        extends with left vertices alone and then drops each child holding
        one of these vertices may pass it, as iTraversal does.  For that
        caller the skip loses nothing.  Such a vertex ``w`` misses no
        vertex of ``R'``, so adding it to any k-biplex with right side
        ``R'`` raises no miss count.  If ``w ∈ L``, local maximality keeps
        it in every local solution on ``R'``.  Otherwise
        :func:`~repro.core.biplex.extend_to_maximal` (with
        ``candidate_right=()``) adds it, its *bulk add*.  Either way the
        child holds ``w`` and is dropped, whatever the candidate order.
    stats:
        Optional counters (the engine's
        :class:`~repro.core.traversal.TraversalStats`): each right side
        that ``exclusion`` skips adds one to its ``num_pruned_exclusion``.
    table:
        A :class:`LocalSolutionTable` of ``(L, R)`` shared with earlier
        calls on other anchors of the same solution (the traversal
        engine's, one per expansion); ``None`` (the default) builds one
        for this call alone.

    Yields
    ------
    Biplex
        Each local solution ``(L' ∪ {v}, R')``.  Solutions are distinct.

    Notes
    -----
    The ``(L', R')`` pairs depend on ``v`` only through its *type*
    ``N(v) ∩ R``, which is why anchors of one type can share a table
    entry.  Each test below reads ``v`` only through it:

    * the split of ``R`` into ``R_keep = N(v) ∩ R`` and ``R_enum = R \\
      R_keep`` (Lemma 4.1), and with it ``R¹_enum`` / ``R²_enum``, the
      right sides ``R' = R_keep ∪ R''`` and the ``min_right_size`` filter;
    * the k-biplex check: ``v`` misses exactly ``R''``, so ``|R''|``
      misses;
    * left maximality: a removed vertex ``w`` fails at ``u ∈ R'`` when
      ``u`` already misses ``k`` vertices of ``L' ∪ {v}``, and ``v``
      misses ``u`` exactly when ``u ∈ R''``;
    * right maximality: each ``u ∈ R_enum \\ R''`` is a non-neighbour of
      ``v``, so ``u``'s misses in ``L' ∪ {v}`` are its misses in ``L'``
      plus one, and ``v``'s own misses on ``R'`` are ``|R''|``.

    The exclusion skip reads ``v``'s type through ``R'`` alone: ``R'`` is
    skipped when ``exclusion`` meets its ``cover``, the left vertices
    adjacent to all of ``R'``.  So the table is exact, not a heuristic:
    each anchor gets the output and the skip count of a call of its own.
    """
    v = new_left_vertex
    left_mask = left if isinstance(left, int) else mask_of(left)
    right_mask = right if isinstance(right, int) else mask_of(right)
    if (left_mask >> v) & 1:
        raise ValueError("the new vertex must not already belong to the solution")
    if table is None:
        table = LocalSolutionTable(graph, left_mask, right_mask)

    r_keep = right_mask & graph.adj_left_mask(v)
    right_sides = table.right_sides.get(r_keep)
    if right_sides is None:
        right_sides = table.right_sides[r_keep] = _right_sides(
            graph,
            r_keep,
            right_mask & ~r_keep,
            table.right_missing,
            k,
            config.right_refinement,
            min_right_size,
        )
    v_bit = 1 << v
    for side in right_sides:
        r_prime_mask, cover, lefts = side[0], side[1], side[2]
        if exclusion & cover:
            if stats is not None:
                stats.num_pruned_exclusion += 1
            continue
        if lefts is None:
            # Built once, with the first anchor that reaches R': every
            # anchor of this type gets the same left sides (see the Notes).
            lefts = side[2] = tuple(
                _enumerate_left_removals(
                    graph,
                    left_mask,
                    r_prime_mask,
                    side[3],
                    side[4],
                    table.right_missing,
                    v,
                    k,
                    config.left_refinement,
                )
            )
        for left_side in lefts:
            yield Biplex(left_side | v_bit, r_prime_mask)


def _right_sides(
    graph: BipartiteGraph,
    r_keep: int,
    r_enum_mask: int,
    right_missing: Dict[int, int],
    k: int,
    right_refinement: int,
    min_right_size: int,
) -> List[list]:
    """The right sides of one anchor type, as :class:`LocalSolutionTable` stores them.

    ``R_keep`` lies in every ``R'`` (Lemma 4.1), so its adjacency is ANDed
    into the cover once and each ``R''`` adds at most ``k`` more ANDs.
    """
    adj_right_mask = graph.adj_right_mask
    keep_cover = -1
    for u in iter_bits(r_keep):
        keep_cover &= adj_right_mask(u)
        if not keep_cover:
            break
    r_enum = list(iter_bits(r_enum_mask))
    r1_enum = [u for u in r_enum if right_missing[u] <= k - 1]
    r2_enum = [u for u in r_enum if right_missing[u] >= k]
    sides = []
    for r_double_prime in _enumerate_right_subsets(r1_enum, r2_enum, k, right_refinement):
        r_double_prime_mask = mask_of(r_double_prime)
        r_prime_mask = r_keep | r_double_prime_mask
        if min_right_size and r_prime_mask.bit_count() < min_right_size:
            continue
        cover = keep_cover
        if cover:
            for u in r_double_prime:
                cover &= adj_right_mask(u)
        sides.append(
            [r_prime_mask, cover, None, r_double_prime, r_enum_mask & ~r_double_prime_mask]
        )
    return sides


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
    left_mask: int,
    r_prime_mask: int,
    r_double_prime: Sequence[int],
    r_rest_mask: int,
    right_missing: Dict[int, int],
    v: int,
    k: int,
    left_refinement: int,
) -> Iterator[int]:
    """Enumerate removal sets from ``L`` for a fixed right side ``R'``.

    Yields the left side ``L'`` (a mask, without ``v``) of each local
    solution ``(L' ∪ {v}, R')``.  ``L`` and ``R'`` arrive as masks,
    ``r_double_prime`` lists the chosen ``R''`` and ``r_rest_mask`` is
    ``R_enum \\ R''``.  The chosen vertices
    that currently miss ``k`` vertices of ``L`` (and also miss ``v``) force
    at least one left removal each.  Removal sets are masks too, so L2.0's
    "superset of an earlier success" test is ``prior & removal == prior``.
    The verification of each candidate is incremental (see
    :func:`_is_local_solution_masked`): only the vertices whose constraints
    can actually have changed are re-checked.
    """
    v_bit = 1 << v
    r2_selected = [u for u in r_double_prime if right_missing[u] >= k]
    if not r2_selected:
        # (L ∪ {v}, R') is already a k-biplex; the only candidate removal is ∅.
        if _is_local_solution_masked(
            graph,
            left_mask | v_bit,
            r_prime_mask,
            0,
            r_double_prime,
            r_rest_mask,
            right_missing,
            k,
        ):
            yield left_mask
        return

    # L_remo: left vertices with at least one non-neighbour in R''₂
    # (Section 4.3).  Collected from the R''₂ side, which is at most k
    # vertices, instead of scanning all of L.
    removal_candidates_mask = 0
    for u in r2_selected:
        removal_candidates_mask |= left_mask & ~graph.adj_right_mask(u)
    removal_pool = [1 << w for w in iter_bits(removal_candidates_mask)]
    budget = min(len(r2_selected), k, len(removal_pool))
    successful_removals: List[int] = []
    for size in range(budget + 1):
        for removal in combinations(removal_pool, size):
            # Distinct single bits: their sum is their union.
            removal_mask = sum(removal)
            if left_refinement >= 2 and any(
                prior & removal_mask == prior for prior in successful_removals
            ):
                continue
            kept_left = left_mask & ~removal_mask
            if _is_local_solution_masked(
                graph,
                kept_left | v_bit,
                r_prime_mask,
                removal_mask,
                r_double_prime,
                r_rest_mask,
                right_missing,
                k,
            ):
                successful_removals.append(removal_mask)
                yield kept_left


def _is_local_solution_masked(
    graph,
    candidate_left_mask: int,
    candidate_right_mask: int,
    removal_mask: int,
    r_double_prime: Sequence[int],
    r_rest_mask: int,
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
    * on the right, any vertex of ``R \\ R'`` (that is, of ``r_rest_mask``)
      would push ``v`` to ``|R''| + 1`` misses, so the right-side maximality
      check is needed only when ``|R''| < k``.

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
        for u in iter_bits(r_rest_mask):
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
    left: Iterable[int],
    right: Iterable[int],
    new_left_vertex: int,
    k: int,
    time_limit: Optional[float] = None,
) -> Tuple[List[Biplex], bool]:
    """The *Inflation* baseline for EnumAlmostSat: its local solutions, and whether it was cut.

    The almost-satisfying graph ``G[L ∪ {v}, R]`` is inflated into a
    general graph (:func:`~repro.graph.inflate.inflate`: cliques within
    each side) and its maximal ``(k+1)``-plexes containing ``v`` are
    enumerated with the branch-and-bound k-plex enumerator.  The plexes
    translate back to exactly the local solutions of the almost-satisfying
    graph.  The search forces ``v`` and branches over the other vertices
    in ascending ids, left side first, so the local solutions come out in
    one fixed order.

    ``time_limit`` (seconds) caps the plex search: the baseline is
    exponential in the almost-satisfying graph's size, which is precisely
    the behaviour Figure 12 demonstrates.  The second element is ``True``
    when the cap cut the search, so the list may be incomplete: Figure 12
    times capped calls, and the engine ends its run on a cut one.
    """
    # Imported lazily: the baselines package imports the core package.
    from ..baselines.kplex import enumerate_maximal_kplexes

    almost_sat, left_ids, right_ids = graph.induced_subgraph_with_mapping(
        [*left, new_left_vertex], right
    )
    plexes, cut = enumerate_maximal_kplexes(
        inflate(almost_sat),
        k + 1,
        must_contain=left_ids.index(new_left_vertex),
        time_limit=time_limit,
    )
    solutions: List[Biplex] = []
    for plex in plexes:
        local_left, local_right = split_vertex_set(frozenset(plex), len(left_ids))
        solutions.append(
            Biplex.of((left_ids[i] for i in local_left), (right_ids[i] for i in local_right))
        )
    return solutions, cut
