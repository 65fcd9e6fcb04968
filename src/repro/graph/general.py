"""General (non-bipartite) undirected graph.

This substrate exists for the *graph inflation* baseline: a bipartite graph
is inflated by adding an edge between every pair of same-side vertices, after
which maximal ``(k+1)``-plexes of the inflated general graph correspond to
maximal k-biplexes of the original bipartite graph (Section 1 and Section 6
of the paper).  The maximal k-plex enumerator in
:mod:`repro.baselines.kplex` operates on this class.

Like :class:`~repro.graph.bipartite.BipartiteGraph`, the graph stores one
adjacency bitmask per vertex (:meth:`Graph.neighbors` builds a fresh set
from it); the k-plex enumerator's ``_fits`` / ``_add`` hot loop turns the
masks into word-parallel non-neighbour popcounts.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import List, Set, Tuple

from .protocol import iter_bits, mask_of


class Graph:
    """A simple undirected graph over vertices ``0 .. n - 1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Optional iterable of ``(u, v)`` pairs with ``u != v``.

    Examples
    --------
    >>> g = Graph(3, edges=[(0, 1), (1, 2)])
    >>> bin(g.adj_mask(1))
    '0b101'
    >>> g.degree(1)
    2
    >>> g.neighbors(0).add(2)  # a fresh set built from the mask
    >>> g.has_edge(0, 2), g.num_edges
    (False, 2)
    """

    __slots__ = ("_n", "_masks", "_num_edges")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("number of vertices must be non-negative")
        self._n = n
        self._masks: List[int] = [0] * n
        self._num_edges = 0
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._num_edges

    def vertices(self) -> range:
        """Iterate over all vertex ids."""
        return range(self._n)

    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``{u, v}``; self-loops are rejected."""
        self._check(u)
        self._check(v)
        if u == v:
            raise ValueError("self-loops are not supported")
        if (self._masks[u] >> v) & 1:
            return False
        self._masks[u] |= 1 << v
        self._masks[v] |= 1 << u
        self._num_edges += 1
        return True

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        self._check(u)
        self._check(v)
        return bool((self._masks[u] >> v) & 1)

    def neighbors(self, u: int) -> Set[int]:
        """The neighbours of ``u``, as a fresh set built from its mask."""
        self._check(u)
        return set(iter_bits(self._masks[u]))

    def adj_mask(self, u: int) -> int:
        """Bitmask over vertex ids of the neighbours of ``u``."""
        return self._masks[u]

    @property
    def full_mask(self) -> int:
        """Mask with one bit per vertex (the whole vertex universe)."""
        return (1 << self._n) - 1

    def degree(self, u: int) -> int:
        """Degree of ``u``."""
        self._check(u)
        return self._masks[u].bit_count()

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges once each, as ``(u, v)`` with ``u < v``."""
        for u, mask in enumerate(self._masks):
            for v in iter_bits(mask):
                if u < v:
                    yield (u, v)

    def subgraph_is_kplex(self, vertex_set: Iterable[int], k: int) -> bool:
        """Whether the induced subgraph on ``vertex_set`` is a k-plex.

        A k-plex is a vertex set in which every vertex ``v`` is adjacent to
        at least ``|S| - k`` vertices of the set, i.e. misses at most ``k``
        vertices *including itself* (Berlowitz et al. convention used by the
        paper).
        """
        members = set(vertex_set)
        members_mask = mask_of(members)
        size = len(members)
        for u in members:
            adjacent_inside = (self._masks[u] & members_mask).bit_count()
            if size - adjacent_inside > k:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._n}, num_edges={self._num_edges})"

    def _check(self, u: int) -> None:
        if not 0 <= u < self._n:
            raise IndexError(f"vertex {u} out of range [0, {self._n})")

