"""Incremental maintenance of graph indices under edge updates.

The static analyses in :mod:`repro.graph.butterfly` / :mod:`repro.graph.cores`
recompute from scratch; this module maintains the same answers *across*
single-edge inserts and deletes, which is what the streaming fraud scenario
needs (camouflage edges arriving over time must not force a cold rebuild
per edge).  The service update path does not use these indices: the
hot-graph registry rebuilds a stale plan with :func:`repro.prep.prepare`.

Three indices, one facade:

* :class:`ButterflyIndex` — per-edge butterfly supports and the global
  butterfly count.  The delta of an insert/delete of ``(v, u)`` is exactly
  the set of wedges through the touched endpoints (the pairs ``(v', u')``
  with ``v' ∈ Γ(u) ∩ Γ(u')``, ``u' ∈ Γ(v)``), i.e. the butterflies the edge
  participates in — the same per-wedge accounting the bitruss peel in
  :func:`repro.graph.butterfly.k_bitruss` uses, applied in reverse for
  inserts (cf. the wedge-based parallel counters of Wang et al., VLDB 2019).
* :class:`AlphaBetaCoreIndex` — (α, β)-core membership repaired locally.
  Deletes can only shrink the core and only from the touched endpoints
  (cascade peel inside the old core); inserts can only grow it, and every
  new member is reachable from a touched endpoint through old non-core
  vertices (see ``edge_inserted`` for the maximality argument), so the
  repair peels ``core ∪ candidates`` while computing degrees only for the
  candidate set.
* k-bitruss — not materialised per ``k``; the maintained butterfly supports
  feed :func:`repro.graph.butterfly.k_bitruss` via its ``supports=``
  parameter (:meth:`DynamicGraphIndex.bitruss`), skipping the dominant
  from-scratch support pass while reusing the existing incremental peel.

From-scratch recomputation stays the differential oracle: the mutation test
suite asserts every maintained quantity equals its recomputed twin after
random update sequences.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional, Set, Tuple

from .bipartite import BipartiteGraph
from .butterfly import _butterfly_mates, edge_butterfly_counts, k_bitruss
from .cores import alpha_beta_core
from .protocol import iter_bits


class ButterflyIndex:
    """Per-edge butterfly supports maintained under edge updates.

    Wraps a graph (without owning it exclusively) and keeps
    ``supports[(v, u)]`` equal to the number of butterflies containing the
    edge, plus the global butterfly count.  :meth:`insert` / :meth:`delete`
    mutate the underlying graph themselves so the wedge enumeration runs
    against the correct adjacency state (the shared ``_butterfly_mates``
    helper assumes the touched edge is absent).
    """

    def __init__(self, graph: BipartiteGraph) -> None:
        self._graph = graph
        self._supports: Dict[Tuple[int, int], int] = edge_butterfly_counts(graph)
        # Each butterfly contributes 1 to each of its four edges.
        self._total = sum(self._supports.values()) // 4

    @property
    def graph(self) -> BipartiteGraph:
        return self._graph

    @property
    def supports(self) -> Dict[Tuple[int, int], int]:
        """The live support mapping — treat as read-only."""
        return self._supports

    @property
    def total(self) -> int:
        """The number of butterflies in the current graph."""
        return self._total

    def support(self, left_vertex: int, right_vertex: int) -> int:
        return self._supports[(left_vertex, right_vertex)]

    def insert(self, left_vertex: int, right_vertex: int) -> bool:
        """Insert ``(v, u)`` and fold its butterflies into the index.

        Every butterfly gained by the insert contains the new edge, so the
        wedge walk below (run while the edge is still absent, matching the
        ``_butterfly_mates`` contract) enumerates exactly the delta; each
        mate pair raises the support of the three other edges of its
        butterfly by one.
        """
        graph = self._graph
        if graph.has_edge(left_vertex, right_vertex):
            return False
        supports = self._supports
        count = 0
        for v_prime, u_prime in _butterfly_mates(graph, left_vertex, right_vertex):
            for edge in (
                (left_vertex, u_prime),
                (v_prime, right_vertex),
                (v_prime, u_prime),
            ):
                supports[edge] += 1
            count += 1
        graph.add_edge(left_vertex, right_vertex)
        supports[(left_vertex, right_vertex)] = count
        self._total += count
        return True

    def delete(self, left_vertex: int, right_vertex: int) -> bool:
        """Remove ``(v, u)`` and fold its butterflies out of the index."""
        graph = self._graph
        if not graph.has_edge(left_vertex, right_vertex):
            return False
        graph.remove_edge(left_vertex, right_vertex)
        supports = self._supports
        count = supports.pop((left_vertex, right_vertex))
        for v_prime, u_prime in _butterfly_mates(graph, left_vertex, right_vertex):
            for edge in (
                (left_vertex, u_prime),
                (v_prime, right_vertex),
                (v_prime, u_prime),
            ):
                supports[edge] -= 1
        self._total -= count
        return True


class AlphaBetaCoreIndex:
    """(α, β)-core membership repaired locally under edge updates.

    ``edge_inserted`` / ``edge_deleted`` must be called *after* the graph
    mutation (the :class:`DynamicGraphIndex` facade sequences this).
    """

    def __init__(self, graph: BipartiteGraph, alpha: int, beta: int) -> None:
        self._graph = graph
        self._alpha = alpha
        self._beta = beta
        left, right = alpha_beta_core(graph, alpha, beta)
        self._left: Set[int] = set(left)
        self._right: Set[int] = set(right)
        # Degree *within the core*, tracked only for members (the peeling
        # invariant: every tracked degree meets its side's bound).
        self._left_deg: Dict[int, int] = {
            v: len(graph.gamma_left(v, self._right)) for v in self._left
        }
        self._right_deg: Dict[int, int] = {
            u: len(graph.gamma_right(u, self._left)) for u in self._right
        }

    @property
    def members(self) -> Tuple[Set[int], Set[int]]:
        """The core as ``(left_set, right_set)`` — live sets, treat as read-only."""
        return self._left, self._right

    def edge_deleted(self, left_vertex: int, right_vertex: int) -> None:
        """Repair after ``(v, u)`` was removed: the core can only shrink.

        If either endpoint was outside the core the induced subgraph on the
        core is unchanged — it still qualifies, and by peeling monotonicity
        the new core is contained in the old one, so nothing moves.  With
        both endpoints inside, a standard cascade peel from the endpoints
        restores the maximum qualifying subset of the old core, which *is*
        the new core (again by monotonicity).
        """
        if left_vertex not in self._left or right_vertex not in self._right:
            return
        self._left_deg[left_vertex] -= 1
        self._right_deg[right_vertex] -= 1
        queue = deque()
        if self._left_deg[left_vertex] < self._alpha:
            queue.append(("L", left_vertex))
        if self._right_deg[right_vertex] < self._beta:
            queue.append(("R", right_vertex))
        graph = self._graph
        while queue:
            side, vertex = queue.popleft()
            if side == "L":
                if vertex not in self._left:
                    continue
                self._left.discard(vertex)
                del self._left_deg[vertex]
                for u in iter_bits(graph.adj_left_mask(vertex)):
                    if u in self._right:
                        self._right_deg[u] -= 1
                        if self._right_deg[u] < self._beta:
                            queue.append(("R", u))
            else:
                if vertex not in self._right:
                    continue
                self._right.discard(vertex)
                del self._right_deg[vertex]
                for v in iter_bits(graph.adj_right_mask(vertex)):
                    if v in self._left:
                        self._left_deg[v] -= 1
                        if self._left_deg[v] < self._alpha:
                            queue.append(("L", v))

    def edge_inserted(self, left_vertex: int, right_vertex: int) -> None:
        """Repair after ``(v, u)`` was added: the core can only grow.

        Both endpoints in the core: their in-core degrees rise and nothing
        else can change — any set ``C ∪ S`` qualifying in the new graph with
        ``S`` disjoint from the old core ``C`` would qualify in the old graph
        too (the ``S`` degrees never involve the new edge, and ``C`` degrees
        within ``C ∪ S`` already met the bounds), contradicting ``C``'s
        maximality.

        Otherwise, every new member is reachable from a touched endpoint via
        old non-core vertices: a connected-through-``S`` chunk of new members
        containing neither endpoint would, by the same argument, have
        qualified before the insert.  So the candidate set is the BFS closure
        of the endpoints through non-core vertices whose *total* degree meets
        their side's bound (a necessary membership condition), and peeling
        ``core ∪ candidates`` — computing degrees only for candidates, since
        old members keep ≥ their old in-core degrees and can never peel —
        yields exactly the new core.
        """
        in_left = left_vertex in self._left
        in_right = right_vertex in self._right
        if in_left and in_right:
            self._left_deg[left_vertex] += 1
            self._right_deg[right_vertex] += 1
            return
        graph = self._graph
        cand_left: Set[int] = set()
        cand_right: Set[int] = set()
        queue = deque()
        if not in_left and graph.degree_of_left(left_vertex) >= self._alpha:
            cand_left.add(left_vertex)
            queue.append(("L", left_vertex))
        if not in_right and graph.degree_of_right(right_vertex) >= self._beta:
            cand_right.add(right_vertex)
            queue.append(("R", right_vertex))
        while queue:
            side, vertex = queue.popleft()
            if side == "L":
                for u in iter_bits(graph.adj_left_mask(vertex)):
                    if (
                        u not in self._right
                        and u not in cand_right
                        and graph.degree_of_right(u) >= self._beta
                    ):
                        cand_right.add(u)
                        queue.append(("R", u))
            else:
                for v in iter_bits(graph.adj_right_mask(vertex)):
                    if (
                        v not in self._left
                        and v not in cand_left
                        and graph.degree_of_left(v) >= self._alpha
                    ):
                        cand_left.add(v)
                        queue.append(("L", v))
        if not cand_left and not cand_right:
            return
        # Peel the candidates against core ∪ candidates.
        left_deg = {
            v: sum(
                1
                for u in iter_bits(graph.adj_left_mask(v))
                if u in self._right or u in cand_right
            )
            for v in cand_left
        }
        right_deg = {
            u: sum(
                1
                for v in iter_bits(graph.adj_right_mask(u))
                if v in self._left or v in cand_left
            )
            for u in cand_right
        }
        peel = deque()
        for v, degree in left_deg.items():
            if degree < self._alpha:
                peel.append(("L", v))
        for u, degree in right_deg.items():
            if degree < self._beta:
                peel.append(("R", u))
        while peel:
            side, vertex = peel.popleft()
            if side == "L":
                if vertex not in cand_left:
                    continue
                cand_left.discard(vertex)
                for u in iter_bits(graph.adj_left_mask(vertex)):
                    if u in cand_right:
                        right_deg[u] -= 1
                        if right_deg[u] == self._beta - 1:
                            peel.append(("R", u))
            else:
                if vertex not in cand_right:
                    continue
                cand_right.discard(vertex)
                for v in iter_bits(graph.adj_right_mask(vertex)):
                    if v in cand_left:
                        left_deg[v] -= 1
                        if left_deg[v] == self._alpha - 1:
                            peel.append(("L", v))
        # Survivors join; old members adjacent to them gain in-core degree.
        for v in cand_left:
            self._left.add(v)
            self._left_deg[v] = left_deg[v]
        for u in cand_right:
            self._right.add(u)
            self._right_deg[u] = right_deg[u]
        for v in cand_left:
            for u in iter_bits(graph.adj_left_mask(v)):
                if u in self._right and u not in cand_right:
                    self._right_deg[u] += 1
        for u in cand_right:
            for v in iter_bits(graph.adj_right_mask(u)):
                if v in self._left and v not in cand_left:
                    self._left_deg[v] += 1


class DynamicGraphIndex:
    """Facade: one mutable graph plus every maintained index, batch-updated.

    ``apply`` mirrors :meth:`BipartiteGraph.apply_batch` epoch semantics
    (one bump per batch that changed anything) while threading each edge
    through the butterfly and core maintenance in the required order.
    """

    def __init__(
        self, graph: BipartiteGraph, alpha: int = 0, beta: int = 0
    ) -> None:
        self.graph = graph
        self.butterflies = ButterflyIndex(graph)
        self.core = AlphaBetaCoreIndex(graph, alpha, beta)

    @property
    def butterfly_count(self) -> int:
        return self.butterflies.total

    @property
    def core_members(self) -> Tuple[Set[int], Set[int]]:
        return self.core.members

    def bitruss(self, k: int) -> BipartiteGraph:
        """The k-bitruss of the current graph, from maintained supports."""
        return k_bitruss(self.graph, k, supports=self.butterflies.supports)

    def apply(
        self,
        inserts: Iterable[Tuple[int, int]] = (),
        deletes: Iterable[Tuple[int, int]] = (),
    ) -> Tuple[int, int]:
        """Apply a mutation batch through every index; returns ``(added, removed)``."""
        graph = self.graph
        saved = graph.epoch
        added = removed = 0
        for left_vertex, right_vertex in inserts:
            if self.butterflies.insert(left_vertex, right_vertex):
                self.core.edge_inserted(left_vertex, right_vertex)
                added += 1
        for left_vertex, right_vertex in deletes:
            if self.butterflies.delete(left_vertex, right_vertex):
                self.core.edge_deleted(left_vertex, right_vertex)
                removed += 1
        # Collapse the per-edge bumps into apply_batch's one-per-batch
        # contract (same-package access to the counter, like apply_batch).
        graph._epoch = saved + 1 if (added or removed) else saved
        return added, removed


def recomputed_oracle(
    graph: BipartiteGraph, alpha: int = 0, beta: int = 0
) -> Tuple[int, Dict[Tuple[int, int], int], Tuple[Set[int], Set[int]]]:
    """From-scratch (butterfly total, edge supports, core) for differential tests."""
    supports = edge_butterfly_counts(graph)
    total = sum(supports.values()) // 4
    left, right = alpha_beta_core(graph, alpha, beta)
    return total, supports, (set(left), set(right))
