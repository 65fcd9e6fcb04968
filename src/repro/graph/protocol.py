"""The bipartite graph *substrate* protocol and bitmask helpers.

The enumeration algorithms never depend on a concrete graph class — they
only use the query surface below: side sizes, adjacency sets, per-vertex
adjacency masks and the Γ / δ̄ primitives of Section 2.  Two objects
implement :class:`BipartiteSubstrate`: :class:`~repro.graph.BipartiteGraph`,
the one substrate, and :class:`~repro.graph.bipartite.MirrorView`, its
zero-copy side-swapped view.

Every vertex carries its adjacency twice, kept in lockstep by every
mutation: a ``set`` and a Python-int *mask* whose set bits are the
neighbour ids on the other side.  The hot paths (the traversal engine,
EnumAlmostSat, the prep kernels, the baselines) run on the masks, which
turn ``Γ(v, S)`` intersections, ``δ̄(v, S)`` counts and
``can_add_left/right`` into word-parallel bitwise operations
(``&``/``~``/``int.bit_count``) — where the BBK (Baudin et al., 2024) and
symmetric-BK (Yu & Long, 2022) implementations get their constant-factor
speedups from.  The set-query predicates of :mod:`repro.core.biplex`
(``is_k_biplex``, ``is_maximal_k_biplex``, ``can_add_left/right``) use the
sets; they are the oracles behind ``verify``, the brute force and the naive
EnumAlmostSat, so the differential tests compare mask code against
independent set-query code.

Orthogonal to the substrate sits the *preprocessing* axis
(:mod:`repro.prep`, selected via ``prep=`` / ``REPRO_PREP``): the engines
hand the input to ``prepare()``, which may peel it down to the
threshold-driven (α,β)-core / k-bitruss fixpoint and compute a degeneracy
candidate ordering.  Solutions are translated back to the input graph's
vertex ids at the engine boundary:

==============  =====================================================
prep mode       effect on the graph
==============  =====================================================
``off``         none — raw graph, canonical candidate order
``core``        (α,β)-core + bitruss peel to a fixpoint (default; an
                identity without size thresholds)
``core+order``  the reduction plus degeneracy anchor/candidate order
==============  =====================================================
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, Set, runtime_checkable


def default_backend() -> str:
    """The name of the adjacency substrate: always ``"bitset"``.

    There is one substrate (:class:`~repro.graph.BipartiteGraph`, sets plus
    masks), so this is a constant; it survives for callers that record
    the substrate next to their measurements.
    """
    return "bitset"


@runtime_checkable
class BipartiteSubstrate(Protocol):
    """Query surface the enumeration algorithms require of a graph."""

    @property
    def n_left(self) -> int: ...

    @property
    def n_right(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    def left_vertices(self) -> Iterable[int]: ...

    def right_vertices(self) -> Iterable[int]: ...

    def has_edge(self, left_vertex: int, right_vertex: int) -> bool: ...

    def neighbors_of_left(self, left_vertex: int) -> Set[int]: ...

    def neighbors_of_right(self, right_vertex: int) -> Set[int]: ...

    def adj_left_mask(self, left_vertex: int) -> int:
        """Bitmask over right ids: bit ``u`` is set iff ``(v, u)`` is an edge."""
        ...

    def adj_right_mask(self, right_vertex: int) -> int:
        """Bitmask over left ids: bit ``v`` is set iff ``(v, u)`` is an edge."""
        ...

    def gamma_left(self, left_vertex: int, right_subset: Iterable[int]) -> Set[int]: ...

    def gamma_right(self, right_vertex: int, left_subset: Iterable[int]) -> Set[int]: ...

    def missing_left(self, left_vertex: int, right_subset: Iterable[int]) -> int: ...

    def missing_right(self, right_vertex: int, left_subset: Iterable[int]) -> int: ...


def mask_of(vertex_ids: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    mask = 0
    for vertex in vertex_ids:
        mask |= 1 << vertex
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def as_backend(graph, backend: str = "bitset"):
    """Return ``graph`` unchanged.

    Every graph already is the one substrate, so there is nothing to
    convert; the name stays importable from the engine and registry
    modules, where benchmark tracers look it up.
    """
    return graph
