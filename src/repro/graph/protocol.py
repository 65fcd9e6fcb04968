"""Bitmask helpers shared by the graph classes and the algorithms.

There is one bipartite graph class, :class:`~repro.graph.BipartiteGraph`;
the enumeration algorithms use its side sizes, neighbour sets, per-vertex
adjacency masks and the Γ / δ̄ primitives of Section 2, and a side-swapped
run works on its :meth:`~repro.graph.BipartiteGraph.swap_sides` copy.

Every vertex stores its adjacency once, as a Python-int *mask* whose set
bits are the neighbour ids on the other side.  The hot paths (the
traversal engine, EnumAlmostSat, the prep kernels, the baselines) run on
the masks, which turn ``Γ(v, S)`` intersections, ``δ̄(v, S)`` counts and
``can_add_left/right`` into word-parallel bitwise operations
(``&``/``~``/``int.bit_count``) — where the BBK (Baudin et al., 2024) and
symmetric-BK (Yu & Long, 2022) implementations get their constant-factor
speedups from.  ``neighbors_of_left/right`` are the API edge: they build a
fresh ``set`` from the mask on each call.  The set-query predicates of
:mod:`repro.core.biplex` (``is_k_biplex``, ``is_maximal_k_biplex``,
``can_add_left/right``) run set logic over those sets; they are the oracles
behind ``verify``, the brute force and the naive EnumAlmostSat, so the
differential tests compare mask code against independent set-query code.

Orthogonal to the graph class sits the *preprocessing* axis
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

from typing import Iterable, Iterator


def default_backend() -> str:
    """The name of the adjacency substrate: always ``"bitset"``.

    There is one substrate (:class:`~repro.graph.BipartiteGraph`, one mask
    per vertex), so this is a constant; it survives for callers that record
    the substrate next to their measurements.
    """
    return "bitset"


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
