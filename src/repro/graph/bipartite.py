"""Bipartite graph data structure used throughout the library.

The paper works with an undirected, unweighted bipartite graph
``G = (L ∪ R, E)``.  Vertices on the two sides live in separate integer
namespaces: left vertices are ``0 .. n_left - 1`` and right vertices are
``0 .. n_right - 1``.  Throughout the code base a vertex is therefore always
qualified by the side it belongs to: every query names its side
(``neighbors_of_left``, ``adj_right_mask``, an argument named
``left_vertex``).

The structure is optimised for the access patterns of the enumeration
algorithms:

* neighbourhood queries ``Γ(v, R)`` and non-neighbourhood sizes
  ``δ̄(v, R) = |R \\ Γ(v)|`` against arbitrary vertex subsets,
* induced subgraph reasoning without materialising subgraph copies,
* cheap iteration over both sides.

Adjacency is stored once per vertex per side, as a Python-int bitmask
whose set bits are the neighbour ids.  The masks make the predicates that
dominate the enumeration word-parallel:

* ``Γ(v, S)`` becomes ``adj_left_mask(v) & mask_of(S)``,
* ``δ̄(v, S)`` becomes ``(mask_of(S) & ~adj_left_mask(v)).bit_count()``,
* the ``can_add_left/right`` checks walk only the set bits of a small
  "missed" mask instead of scanning a Python set per candidate.

Neighbour *sets* exist only at the API edge: each ``neighbors_of_*`` call
builds a fresh ``set`` from the mask, for the set-query predicates of
:mod:`repro.core.biplex`.

The side sizes are fixed at construction; mutation adds and removes edges
only.  See :mod:`repro.graph.protocol` for the mask helpers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import List, Set, Tuple

from .protocol import iter_bits, mask_of


class BipartiteGraph:
    """An undirected, unweighted bipartite graph.

    Parameters
    ----------
    n_left:
        Number of vertices on the left side (ids ``0 .. n_left - 1``).
    n_right:
        Number of vertices on the right side (ids ``0 .. n_right - 1``).
    edges:
        Optional iterable of ``(left_vertex, right_vertex)`` pairs.

    Examples
    --------
    >>> g = BipartiteGraph(2, 3, edges=[(0, 0), (0, 1), (1, 2)])
    >>> g.num_edges
    3
    >>> bin(g.adj_left_mask(0))
    '0b11'
    >>> sorted(g.neighbors_of_left(0))
    [0, 1]
    >>> g.neighbors_of_left(0).add(2)  # a fresh set built from the mask
    >>> g.has_edge(0, 2), g.num_edges
    (False, 3)
    """

    __slots__ = (
        "_n_left",
        "_n_right",
        "_left_masks",
        "_right_masks",
        "_num_edges",
        "_epoch",
    )

    def __init__(
        self,
        n_left: int,
        n_right: int,
        edges: Iterable[Tuple[int, int]] = (),
    ) -> None:
        if n_left < 0 or n_right < 0:
            raise ValueError("side sizes must be non-negative")
        self._n_left = n_left
        self._n_right = n_right
        self._left_masks: List[int] = [0] * n_left
        self._right_masks: List[int] = [0] * n_right
        self._num_edges = 0
        self._epoch = 0
        for left_vertex, right_vertex in edges:
            self.add_edge(left_vertex, right_vertex)
        # Construction is epoch 0 regardless of how many edges were replayed:
        # the epoch versions *post-construction mutation*, which is what the
        # caches and cursor fingerprints key on.  Copies and subgraphs
        # therefore also (re)start at epoch 0 — epochs are per-object, not a
        # property of the adjacency they describe.
        self._epoch = 0

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_left(self) -> int:
        """Number of left-side vertices."""
        return self._n_left

    @property
    def n_right(self) -> int:
        """Number of right-side vertices."""
        return self._n_right

    @property
    def num_vertices(self) -> int:
        """Total number of vertices, ``|L| + |R|``."""
        return self._n_left + self._n_right

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return self._num_edges

    @property
    def epoch(self) -> int:
        """Mutation-batch counter: 0 at construction, +1 per successful
        :meth:`add_edge` / :meth:`remove_edge` call and +1 per
        :meth:`apply_batch` that changed anything.  Everything that caches
        derived state for a graph object (prep plans, service result caches,
        session cursors) records the epoch it was computed at and treats a
        mismatch as staleness."""
        return self._epoch

    @property
    def edge_density(self) -> float:
        """Edge density ``|E| / (|L| + |R|)`` as defined in the paper."""
        if self.num_vertices == 0:
            return 0.0
        return self._num_edges / self.num_vertices

    def left_vertices(self) -> range:
        """Iterate over all left-side vertex ids."""
        return range(self._n_left)

    def right_vertices(self) -> range:
        """Iterate over all right-side vertex ids."""
        return range(self._n_right)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, left_vertex: int, right_vertex: int) -> bool:
        """Add the edge ``(left_vertex, right_vertex)``.

        Returns ``True`` if the edge was newly inserted, ``False`` if it was
        already present.  Raises :class:`IndexError` for out-of-range ids.
        """
        self._check_left(left_vertex)
        self._check_right(right_vertex)
        if (self._left_masks[left_vertex] >> right_vertex) & 1:
            return False
        self._left_masks[left_vertex] |= 1 << right_vertex
        self._right_masks[right_vertex] |= 1 << left_vertex
        self._num_edges += 1
        self._epoch += 1
        return True

    def remove_edge(self, left_vertex: int, right_vertex: int) -> bool:
        """Remove the edge if present.  Returns ``True`` when removed."""
        self._check_left(left_vertex)
        self._check_right(right_vertex)
        if not (self._left_masks[left_vertex] >> right_vertex) & 1:
            return False
        self._left_masks[left_vertex] ^= 1 << right_vertex
        self._right_masks[right_vertex] ^= 1 << left_vertex
        self._num_edges -= 1
        self._epoch += 1
        return True

    def apply_batch(
        self,
        inserts: Iterable[Tuple[int, int]] = (),
        deletes: Iterable[Tuple[int, int]] = (),
    ) -> Tuple[int, int]:
        """Apply a batch of edge mutations as ONE epoch bump.

        Returns ``(added, removed)`` — edges actually inserted / removed
        (no-op pairs are counted out).  The epoch rises by exactly one when
        the batch changed anything and not at all when it was a no-op, so a
        service-level update maps to a single cache-invalidation step no
        matter how many edges it carries.  Id validation happens before any
        mutation per edge, so an :class:`IndexError` mid-batch leaves earlier
        edges applied — callers wanting atomicity validate ids first.
        """
        saved = self._epoch
        added = removed = 0
        for left_vertex, right_vertex in inserts:
            if self.add_edge(left_vertex, right_vertex):
                added += 1
        for left_vertex, right_vertex in deletes:
            if self.remove_edge(left_vertex, right_vertex):
                removed += 1
        self._epoch = saved + 1 if (added or removed) else saved
        return added, removed

    def reset_epoch(self) -> None:
        """Re-zero the mutation counter.

        For builders (the random-graph generators, the dataset registry)
        that assemble a graph through ``add_edge`` and then hand it out as a
        *fresh* object: the assembly edges are construction, not mutation,
        so the published graph should start at epoch 0 like a
        constructor-built one.
        """
        self._epoch = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def has_edge(self, left_vertex: int, right_vertex: int) -> bool:
        """Whether ``(left_vertex, right_vertex)`` is an edge."""
        self._check_left(left_vertex)
        self._check_right(right_vertex)
        return bool((self._left_masks[left_vertex] >> right_vertex) & 1)

    def neighbors_of_left(self, left_vertex: int) -> Set[int]:
        """Right-side neighbours ``Γ(v)`` of a left vertex, as a fresh set."""
        self._check_left(left_vertex)
        return set(iter_bits(self._left_masks[left_vertex]))

    def neighbors_of_right(self, right_vertex: int) -> Set[int]:
        """Left-side neighbours ``Γ(u)`` of a right vertex, as a fresh set."""
        self._check_right(right_vertex)
        return set(iter_bits(self._right_masks[right_vertex]))

    def adj_left_mask(self, left_vertex: int) -> int:
        """Bitmask over right ids: bit ``u`` is set iff ``(v, u)`` is an edge.

        Hot path: no bounds check beyond list indexing.
        """
        return self._left_masks[left_vertex]

    def adj_right_mask(self, right_vertex: int) -> int:
        """Bitmask over left ids: bit ``v`` is set iff ``(v, u)`` is an edge."""
        return self._right_masks[right_vertex]

    def degree_of_left(self, left_vertex: int) -> int:
        """Degree of a left vertex."""
        self._check_left(left_vertex)
        return self._left_masks[left_vertex].bit_count()

    def degree_of_right(self, right_vertex: int) -> int:
        """Degree of a right vertex."""
        self._check_right(right_vertex)
        return self._right_masks[right_vertex].bit_count()

    # -- the Γ / δ primitives of Section 2 ----------------------------- #
    def gamma_left(self, left_vertex: int, right_subset: Iterable[int]) -> Set[int]:
        """``Γ(v, R')``: members of ``right_subset`` adjacent to ``left_vertex``."""
        adjacency = self.neighbors_of_left(left_vertex)
        return {u for u in right_subset if u in adjacency}

    def gamma_right(self, right_vertex: int, left_subset: Iterable[int]) -> Set[int]:
        """``Γ(u, L')``: members of ``left_subset`` adjacent to ``right_vertex``."""
        adjacency = self.neighbors_of_right(right_vertex)
        return {v for v in left_subset if v in adjacency}

    def missing_left(self, left_vertex: int, right_subset: Iterable[int]) -> int:
        """``δ̄(v, R')``: number of vertices of ``right_subset`` missed by ``left_vertex``."""
        adjacency = self.neighbors_of_left(left_vertex)
        return sum(1 for u in right_subset if u not in adjacency)

    def missing_right(self, right_vertex: int, left_subset: Iterable[int]) -> int:
        """``δ̄(u, L')``: number of vertices of ``left_subset`` missed by ``right_vertex``."""
        adjacency = self.neighbors_of_right(right_vertex)
        return sum(1 for v in left_subset if v not in adjacency)

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def induced_subgraph(
        self, left_subset: Iterable[int], right_subset: Iterable[int]
    ) -> "BipartiteGraph":
        """Return the induced subgraph ``G[L' ∪ R']`` with *re-labelled* ids.

        Vertex ids in the returned graph are compacted to
        ``0 .. len(subset) - 1`` following the sorted order of the original
        ids.  Use :meth:`induced_subgraph_with_mapping` when the mapping back
        to original ids is needed.
        """
        subgraph, _, _ = self.induced_subgraph_with_mapping(left_subset, right_subset)
        return subgraph

    def induced_subgraph_with_mapping(
        self, left_subset: Iterable[int], right_subset: Iterable[int]
    ) -> Tuple["BipartiteGraph", List[int], List[int]]:
        """Induced subgraph plus ``new id → original id`` maps for both sides."""
        left_ids = sorted(set(left_subset))
        right_ids = sorted(set(right_subset))
        right_index = {original: new for new, original in enumerate(right_ids)}
        right_mask = mask_of(right_ids)
        subgraph = BipartiteGraph(
            len(left_ids),
            len(right_ids),
            (
                (new_left, right_index[original_right])
                for new_left, original_left in enumerate(left_ids)
                for original_right in iter_bits(self._left_masks[original_left] & right_mask)
            ),
        )
        return subgraph, left_ids, right_ids

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all edges as ``(left_vertex, right_vertex)`` pairs."""
        for left_vertex, mask in enumerate(self._left_masks):
            for right_vertex in iter_bits(mask):
                yield (left_vertex, right_vertex)

    def copy(self) -> "BipartiteGraph":
        """Return a deep copy of the graph."""
        return BipartiteGraph(self._n_left, self._n_right, self.edges())

    def swap_sides(self) -> "BipartiteGraph":
        """Return a graph with the two sides exchanged, at epoch 0.

        The right-anchored traversal is the left-anchored one on this
        graph, and bTraversal runs EnumAlmostSat for a right candidate on
        it.  The copy takes the two mask lists as they are.
        """
        swapped = BipartiteGraph(self._n_right, self._n_left)
        swapped._left_masks = list(self._right_masks)
        swapped._right_masks = list(self._left_masks)
        swapped._num_edges = self._num_edges
        return swapped

    # ------------------------------------------------------------------ #
    # Dunder / helpers
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self._n_left == other._n_left
            and self._n_right == other._n_right
            and self._left_masks == other._left_masks
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BipartiteGraph(n_left={self._n_left}, n_right={self._n_right}, "
            f"num_edges={self._num_edges})"
        )

    def _check_left(self, left_vertex: int) -> None:
        if not 0 <= left_vertex < self._n_left:
            raise IndexError(f"left vertex {left_vertex} out of range [0, {self._n_left})")

    def _check_right(self, right_vertex: int) -> None:
        if not 0 <= right_vertex < self._n_right:
            raise IndexError(f"right vertex {right_vertex} out of range [0, {self._n_right})")


def paper_example_graph() -> BipartiteGraph:
    """The running example of the paper (Figure 1).

    Left vertices ``v0 .. v4`` and right vertices ``u0 .. u4``.  Edges are
    reconstructed from the worked examples in Sections 3.1-3.3:

    * ``H0 = ({v4}, {u0..u4})`` is a maximal 1-biplex, so ``v4`` is adjacent
      to at least four of the five right vertices,
    * ``H1 = ({v0, v1, v4}, {u0..u3})`` and
      ``H'' = ({v1, v2, v4}, {u0, u1, u2})`` are maximal 1-biplexes.

    The concrete adjacency below satisfies every constraint exercised by the
    paper's worked examples (Example 3.1 and Example 3.2): ``H0``, ``H1`` and
    ``H'' = ({v1, v2, v4}, {u0, u1, u2})`` are all maximal 1-biplexes and the
    ThreeStep walks described in the text reproduce exactly.
    """
    edges = [
        (0, 0), (0, 1), (0, 3),            # v0 misses u2, u4
        (1, 1), (1, 2), (1, 3),            # v1 misses u0, u4
        (2, 0), (2, 1), (2, 4),            # v2 misses u2, u3
        (3, 3), (3, 4),                    # v3 misses u0, u1, u2
        (4, 0), (4, 1), (4, 2), (4, 3), (4, 4),  # v4 adjacent to all
    ]
    return BipartiteGraph(5, 5, edges=edges)

