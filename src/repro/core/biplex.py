"""k-biplex primitives: the Biplex value type, predicates and extensions.

This module implements Definitions 2.1-2.3 of the paper and the basic
operations every enumeration algorithm builds on:

* the k-biplex predicate (each vertex misses at most ``k`` vertices of the
  other side),
* incremental "can this vertex be added?" checks,
* greedy maximal extension with a deterministic vertex order (Step 3 of the
  ThreeStep procedure),
* construction of the designated initial solutions ``(L0, R)`` and
  ``(L, R0)`` used by iTraversal (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional, Sequence, Set, Tuple

from ..graph.bipartite import BipartiteGraph
from ..graph.protocol import (
    BATCH_SWEEP_MIN_SIDE,
    iter_bits,
    mask_of,
    supports_masks,
    supports_vector_batch,
)


@dataclass(frozen=True, order=True)
class Biplex:
    """An induced bipartite subgraph ``(L, R)``, identified by its vertex sets.

    Instances are immutable and hashable, so they can be stored directly in
    the visited-solution set (the paper's B-tree) and used as nodes of the
    explicit solution graph.
    """

    left: FrozenSet[int]
    right: FrozenSet[int]

    @staticmethod
    def of(left: Iterable[int], right: Iterable[int]) -> "Biplex":
        """Build a :class:`Biplex` from any two iterables of vertex ids."""
        return Biplex(frozenset(left), frozenset(right))

    @property
    def size(self) -> int:
        """Total number of vertices ``|L| + |R|``."""
        return len(self.left) + len(self.right)

    def vertices(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """The two vertex sets as a tuple."""
        return self.left, self.right

    def contains(self, other: "Biplex") -> bool:
        """Whether ``other`` is a (not necessarily proper) subgraph of this one."""
        return other.left <= self.left and other.right <= self.right

    def key(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Canonical sortable key (used for deterministic output ordering)."""
        return (tuple(sorted(self.left)), tuple(sorted(self.right)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Biplex(L={sorted(self.left)}, R={sorted(self.right)})"


# ---------------------------------------------------------------------- #
# Predicates
# ---------------------------------------------------------------------- #
def is_k_biplex(
    graph: BipartiteGraph,
    left: Iterable[int],
    right: Iterable[int],
    k: int,
) -> bool:
    """Whether the induced subgraph ``(left, right)`` is a k-biplex.

    Definition 2.1: every left vertex misses at most ``k`` vertices of
    ``right`` and every right vertex misses at most ``k`` vertices of
    ``left``.  Empty sides are allowed (``(∅, R)`` is always a k-biplex).

    On a vectorized batch substrate, each side large enough to clear the
    sweep crossover gets its miss counts from one ``popcount_rows`` sweep
    (``δ̄(v, S) = |S| − |Γ(v) ∩ S|``) instead of a per-vertex mask loop.
    """
    if supports_masks(graph):
        left_set = set(left)
        right_set = set(right)
        left_mask = mask_of(left_set)
        right_mask = mask_of(right_set)
        batch = supports_vector_batch(graph)
        if batch and left_set and graph.n_left >= BATCH_SWEEP_MIN_SIDE:
            hits = graph.popcount_rows("left", right_mask).tolist()
            size = len(right_set)
            if any(size - hits[v] > k for v in left_set):
                return False
        else:
            for v in left_set:
                if (right_mask & ~graph.adj_left_mask(v)).bit_count() > k:
                    return False
        if batch and right_set and graph.n_right >= BATCH_SWEEP_MIN_SIDE:
            hits = graph.popcount_rows("right", left_mask).tolist()
            size = len(left_set)
            if any(size - hits[u] > k for u in right_set):
                return False
        else:
            for u in right_set:
                if (left_mask & ~graph.adj_right_mask(u)).bit_count() > k:
                    return False
        return True
    left_set = set(left)
    right_set = set(right)
    for v in left_set:
        if graph.missing_left(v, right_set) > k:
            return False
    for u in right_set:
        if graph.missing_right(u, left_set) > k:
            return False
    return True


def can_add_left(
    graph: BipartiteGraph,
    left: Set[int],
    right: Set[int],
    candidate: int,
    k: int,
) -> bool:
    """Whether adding left vertex ``candidate`` to the k-biplex ``(left, right)`` keeps it a k-biplex.

    Assumes ``(left, right)`` already is a k-biplex; only the constraints
    that can change are checked: the candidate's own miss count and the miss
    counts of the right vertices it does not connect.
    """
    if candidate in left:
        return False
    candidate_adjacency = graph.neighbors_of_left(candidate)
    missed = right - candidate_adjacency if isinstance(right, (set, frozenset)) else {
        u for u in right if u not in candidate_adjacency
    }
    if len(missed) > k:
        return False
    left_view = left if isinstance(left, (set, frozenset)) else set(left)
    for u in missed:
        if graph.missing_right(u, left_view) + 1 > k:
            return False
    return True


def can_add_right(
    graph: BipartiteGraph,
    left: Set[int],
    right: Set[int],
    candidate: int,
    k: int,
) -> bool:
    """Mirror image of :func:`can_add_left` for a right-side candidate."""
    if candidate in right:
        return False
    candidate_adjacency = graph.neighbors_of_right(candidate)
    missed = left - candidate_adjacency if isinstance(left, (set, frozenset)) else {
        v for v in left if v not in candidate_adjacency
    }
    if len(missed) > k:
        return False
    right_view = right if isinstance(right, (set, frozenset)) else set(right)
    for v in missed:
        if graph.missing_left(v, right_view) + 1 > k:
            return False
    return True


def can_add_left_masked(
    graph,
    left_mask: int,
    right_mask: int,
    candidate: int,
    k: int,
) -> bool:
    """Bitmask twin of :func:`can_add_left` for mask-capable substrates.

    ``left_mask`` / ``right_mask`` are the packed vertex sets of a k-biplex;
    the decision is identical to the set version, but the "missed" vertices
    are found with one word-parallel ``&``/``~`` instead of a set difference
    and only their (at most ``k``) bits are walked.
    """
    if (left_mask >> candidate) & 1:
        return False
    missed = right_mask & ~graph.adj_left_mask(candidate)
    if missed.bit_count() > k:
        return False
    adj_right_mask = graph.adj_right_mask
    while missed:
        low = missed & -missed
        if (left_mask & ~adj_right_mask(low.bit_length() - 1)).bit_count() >= k:
            return False
        missed ^= low
    return True


def can_add_right_masked(
    graph,
    left_mask: int,
    right_mask: int,
    candidate: int,
    k: int,
) -> bool:
    """Mirror image of :func:`can_add_left_masked` for a right-side candidate."""
    if (right_mask >> candidate) & 1:
        return False
    missed = left_mask & ~graph.adj_right_mask(candidate)
    if missed.bit_count() > k:
        return False
    adj_left_mask = graph.adj_left_mask
    while missed:
        low = missed & -missed
        if (right_mask & ~adj_left_mask(low.bit_length() - 1)).bit_count() >= k:
            return False
        missed ^= low
    return True


def is_maximal_k_biplex(
    graph: BipartiteGraph,
    left: Iterable[int],
    right: Iterable[int],
    k: int,
    candidate_left: Optional[Iterable[int]] = None,
    candidate_right: Optional[Iterable[int]] = None,
) -> bool:
    """Whether ``(left, right)`` is a k-biplex that is maximal within ``graph``.

    When ``candidate_left`` / ``candidate_right`` are given, maximality is
    only checked against those candidate pools — this is how *local*
    maximality w.r.t. an almost-satisfying graph is tested (Step 2 of
    ThreeStep).  Otherwise all vertices of ``graph`` are candidates.
    """
    left_set = set(left)
    right_set = set(right)
    if not is_k_biplex(graph, left_set, right_set, k):
        return False
    left_pool = graph.left_vertices() if candidate_left is None else list(candidate_left)
    right_pool = graph.right_vertices() if candidate_right is None else list(candidate_right)
    if supports_vector_batch(graph):
        # One popcount sweep per side scores every candidate at once: a
        # vertex missing more than k vertices of the other side can never be
        # added, so only the (few) survivors reach the exact probe.  Each
        # sweep is gated on its pool clearing the crossover — the restricted
        # pools of the local-maximality checks stay on the direct probes.
        if len(left_pool) >= BATCH_SWEEP_MIN_SIDE:
            hits = graph.popcount_rows("left", mask_of(right_set)).tolist()
            budget = len(right_set) - k
            left_pool = [v for v in left_pool if hits[v] >= budget]
        if len(right_pool) >= BATCH_SWEEP_MIN_SIDE:
            hits = graph.popcount_rows("right", mask_of(left_set)).tolist()
            budget = len(left_set) - k
            right_pool = [u for u in right_pool if hits[u] >= budget]
    for v in left_pool:
        if v not in left_set and can_add_left(graph, left_set, right_set, v, k):
            return False
    for u in right_pool:
        if u not in right_set and can_add_right(graph, left_set, right_set, u, k):
            return False
    return True


# ---------------------------------------------------------------------- #
# Extension
# ---------------------------------------------------------------------- #
def extend_to_maximal(
    graph: BipartiteGraph,
    left: Iterable[int],
    right: Iterable[int],
    k: int,
    candidate_left: Optional[Sequence[int]] = None,
    candidate_right: Optional[Sequence[int]] = None,
) -> Biplex:
    """Greedily extend a k-biplex to a maximal one using a fixed vertex order.

    Candidates are tried in ascending id order, left side first, and a
    vertex is added whenever the k-biplex property is preserved.  The fixed
    order makes Step 3 of the ThreeStep procedure deterministic, which the
    framework requires ("each local solution is extended to only one real
    solution").

    ``candidate_left`` / ``candidate_right`` restrict the vertices that may
    be added — e.g. iTraversal extends with left-side vertices only
    (Line 8 of Algorithm 2 excludes ``R``).  ``None`` means "all vertices of
    that side".  The pools are sets: a vertex listed twice is tried once.
    """
    if supports_masks(graph):
        return _extend_to_maximal_masked(graph, left, right, k, candidate_left, candidate_right)
    left_set = set(left)
    right_set = set(right)
    if candidate_left is None:
        left_pool: Sequence[int] = range(graph.n_left)
    else:
        left_pool = sorted(set(candidate_left))
    if candidate_right is None:
        right_pool: Sequence[int] = range(graph.n_right)
    else:
        right_pool = sorted(set(candidate_right))

    # Adding a vertex only ever tightens the constraints (miss counts never
    # decrease), so a candidate rejected once can never become addable later.
    # A single deterministic pass — left side first, then right side — is
    # therefore enough to reach a maximal k-biplex.
    left_miss = {v: len(right_set - graph.neighbors_of_left(v)) for v in left_set}
    right_miss = {u: len(left_set - graph.neighbors_of_right(u)) for u in right_set}

    for v in _extension_candidates(left_pool, left_set, right_set, k, graph.neighbors_of_right):
        missed = right_set - graph.neighbors_of_left(v)
        if len(missed) > k:
            continue
        if any(right_miss[u] + 1 > k for u in missed):
            continue
        left_set.add(v)
        left_miss[v] = len(missed)
        for u in missed:
            right_miss[u] += 1

    for u in _extension_candidates(right_pool, right_set, left_set, k, graph.neighbors_of_left):
        missed = left_set - graph.neighbors_of_right(u)
        if len(missed) > k:
            continue
        if any(left_miss[v] + 1 > k for v in missed):
            continue
        right_set.add(u)
        right_miss[u] = len(missed)
        for v in missed:
            left_miss[v] += 1

    return Biplex.of(left_set, right_set)


def _extend_to_maximal_masked(
    graph,
    left: Iterable[int],
    right: Iterable[int],
    k: int,
    candidate_left: Optional[Sequence[int]] = None,
    candidate_right: Optional[Sequence[int]] = None,
) -> Biplex:
    """Bitmask implementation of :func:`extend_to_maximal`.

    Each side runs one :func:`_greedy_pass_masked` over a candidate mask,
    left side first.  Ascending bit order is the set version's ascending id
    order, and a mask holds each vertex once, so the resulting maximal
    k-biplex is bit-for-bit identical.  Two invariants let a pass decide
    most candidates without visiting them, and neither changes a decision:

    * *bulk add* — a candidate adjacent to the whole other side misses
      nothing, so it always joins and changes no miss count: those
      candidates join in one ``|`` and the rest are decided as if they
      were absent;
    * *saturation* — an other-side vertex that already misses ``k``
      vertices of this side rejects every later candidate that misses it
      (miss counts never fall), so its adjacency is ANDed into the pool and
      a surviving candidate is rejected only for missing more than ``k``.

    The child is built as the input sides plus the added vertices.
    """
    left = left if isinstance(left, frozenset) else frozenset(left)
    right = right if isinstance(right, frozenset) else frozenset(right)
    left_mask = mask_of(left)
    right_mask = mask_of(right)
    pool = (1 << graph.n_left) - 1 if candidate_left is None else mask_of(candidate_left)
    pool &= ~left_mask
    if pool:
        added = _greedy_pass_masked(
            pool, left_mask, right_mask, graph.adj_left_mask, graph.adj_right_mask, k
        )
        if added:
            left = left.union(iter_bits(added))
            left_mask |= added
    pool = (1 << graph.n_right) - 1 if candidate_right is None else mask_of(candidate_right)
    pool &= ~right_mask
    if pool:
        added = _greedy_pass_masked(
            pool, right_mask, left_mask, graph.adj_right_mask, graph.adj_left_mask, k
        )
        if added:
            right = right.union(iter_bits(added))
    return Biplex(left, right)


def _greedy_pass_masked(pool, own_mask, other_mask, own_adj, other_adj, k):
    """Add ``pool`` candidates in ascending id order; return the added mask.

    ``own_adj`` / ``other_adj`` are the adjacency-mask accessors of the side
    being extended and of the opposite side.  ``(own_mask, other_mask)``
    must be a k-biplex; see :func:`_extend_to_maximal_masked` for why the
    bulk add and the saturation prune keep the greedy result unchanged.
    """
    # One walk over the other side scores its miss counts, prunes the pool
    # by the saturated vertices and collects the candidates adjacent to all.
    bulk = pool
    miss = {}
    probe = other_mask
    while probe:
        low = probe & -probe
        probe ^= low
        u = low.bit_length() - 1
        adjacency = other_adj(u)
        bulk &= adjacency
        count = (own_mask & ~adjacency).bit_count()
        if count >= k:
            pool &= adjacency
        else:
            miss[u] = count
    added = bulk
    pool &= ~bulk
    while pool:
        low = pool & -pool
        pool ^= low
        missed = other_mask & ~own_adj(low.bit_length() - 1)
        if missed.bit_count() > k:
            continue
        added |= low
        # Every missed vertex is unsaturated (the pool is pruned), so only
        # its count moves; one that reaches k prunes the rest of the pool.
        while missed:
            bit = missed & -missed
            missed ^= bit
            u = bit.bit_length() - 1
            count = miss[u] + 1
            miss[u] = count
            if count >= k:
                pool &= other_adj(u)
    return added


def _extension_candidates(pool, own_side, other_side, k, other_neighbors):
    """Candidates from ``pool`` that could possibly join the current biplex.

    A vertex can only be added if it is adjacent to at least
    ``|other_side| - k`` vertices of the other side.  When the other side is
    larger than ``k`` we find those vertices by counting adjacencies *from*
    the other side, which is proportional to the edges incident to the
    current biplex instead of to ``|pool| × |other_side|`` — a large win on
    sparse graphs where most pool vertices have no neighbour in the biplex.
    The returned candidates preserve the ascending order of ``pool`` so the
    extension stays deterministic.
    """
    if not pool:
        return []
    if len(other_side) <= k:
        return [v for v in pool if v not in own_side]
    counts: dict = {}
    for u in other_side:
        for v in other_neighbors(u):
            counts[v] = counts.get(v, 0) + 1
    threshold = len(other_side) - k
    eligible = [v for v, count in counts.items() if count >= threshold and v not in own_side]
    if isinstance(pool, range) and pool.start == 0 and pool.step == 1:
        # The pool is "every vertex of the side": the eligible set is already
        # the answer; sort it to keep the deterministic ascending order.
        return sorted(v for v in eligible if v < pool.stop)
    eligible_set = set(eligible)
    return [v for v in pool if v in eligible_set]


def initial_solution_left_anchored(graph: BipartiteGraph, k: int) -> Biplex:
    """The designated initial solution ``H0 = (L0, R)`` of iTraversal.

    Start from ``(∅, R)`` — always a k-biplex — and greedily add left
    vertices in ascending id order while the k-biplex property holds
    (Section 3.2) — the left-only greedy of :func:`extend_to_maximal`.  The
    result is a maximal k-biplex whose right side is the whole of ``R``.
    """
    return extend_to_maximal(graph, (), range(graph.n_right), k, candidate_right=())


def initial_solution_right_anchored(graph: BipartiteGraph, k: int) -> Biplex:
    """The symmetric initial solution ``H0' = (L, R0)`` (footnote 1, Section 3.2)."""
    return extend_to_maximal(graph, range(graph.n_left), (), k, candidate_left=())


def arbitrary_initial_solution(graph: BipartiteGraph, k: int, order: Optional[Sequence[Tuple[str, int]]] = None) -> Biplex:
    """An arbitrary maximal k-biplex, as used by bTraversal.

    ``order`` optionally fixes the insertion order as a sequence of
    ``("L", id)`` / ``("R", id)`` pairs; by default vertices are interleaved
    left/right in ascending id order, which tends to give a balanced seed.
    """
    left_set: Set[int] = set()
    right_set: Set[int] = set()
    if order is None:
        interleaved = []
        for i in range(max(graph.n_left, graph.n_right)):
            if i < graph.n_left:
                interleaved.append(("L", i))
            if i < graph.n_right:
                interleaved.append(("R", i))
        order = interleaved
    for side, vertex in order:
        if side == "L":
            if can_add_left(graph, left_set, right_set, vertex, k):
                left_set.add(vertex)
        else:
            if can_add_right(graph, left_set, right_set, vertex, k):
                right_set.add(vertex)
    return extend_to_maximal(graph, left_set, right_set, k)


def violating_vertices(
    graph: BipartiteGraph, left: Iterable[int], right: Iterable[int], k: int
) -> Tuple[Set[int], Set[int]]:
    """Vertices whose miss count exceeds ``k`` in the induced subgraph.

    Returns ``(violating left vertices, violating right vertices)``; both
    sets are empty exactly when the subgraph is a k-biplex.  Used by the
    EnumAlmostSat implementation and by the verification helpers.
    """
    left_set = set(left)
    right_set = set(right)
    bad_left = {v for v in left_set if graph.missing_left(v, right_set) > k}
    bad_right = {u for u in right_set if graph.missing_right(u, left_set) > k}
    return bad_left, bad_right


def biplex_edge_count(graph: BipartiteGraph, biplex: Biplex) -> int:
    """Number of edges inside the induced subgraph of ``biplex``."""
    total = 0
    for v in biplex.left:
        adjacency = graph.neighbors_of_left(v)
        total += sum(1 for u in biplex.right if u in adjacency)
    return total


def iter_biplex_missing_pairs(
    graph: BipartiteGraph, biplex: Biplex
) -> Iterator[Tuple[int, int]]:
    """Iterate over the missing (non-edge) pairs inside ``biplex``."""
    for v in biplex.left:
        adjacency = graph.neighbors_of_left(v)
        for u in biplex.right:
            if u not in adjacency:
                yield (v, u)
