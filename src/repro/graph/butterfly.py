"""Butterfly counting and k-bitruss decomposition.

A *butterfly* is a complete 2 × 2 biclique.  The *k-bitruss* of a bipartite
graph is the maximal subgraph in which every edge participates in at least
``k`` butterflies.  The paper discusses k-bitruss as one of the alternative
cohesive-structure definitions (Sections 1 and 7); it imposes no
disconnection constraint, which is why k-biplexes are preferred for the
fraud-detection task.  We provide both primitives so the case study and the
documentation can compare against them.

The butterfly counting routine follows the vertex-priority idea of Wang et
al. (VLDB 2019) in spirit: wedges are accumulated from the side that makes
the wedge-centred work smaller, and the per-pair common neighbourhoods are
word-parallel ``&`` + popcount operations on the adjacency masks instead of
per-vertex dictionary accumulation.

k-bitruss peeling is *incremental* and runs on the mask peel of
:class:`repro.graph.cores.Peel`: the butterfly supports are computed once, and
removing an edge only re-scores the edges that shared a butterfly with it,
instead of recomputing every support from scratch per round.  A peeled
edge has support < k by definition, so each removal walks fewer than k
butterflies.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .bipartite import BipartiteGraph
from .cores import Peel
from .protocol import iter_bits


def count_butterflies(graph: BipartiteGraph) -> int:
    """Total number of butterflies (2 × 2 bicliques) in ``graph``.

    Counting is done by enumerating wedges centred on the side with the
    smaller total wedge count: for every pair of same-side vertices the
    number of common neighbours ``c`` contributes ``c * (c - 1) / 2``
    butterflies; summing over pairs via per-pair wedge counts avoids
    materialising the pairs explicitly.
    """
    return _count_from_side(graph, from_left=_pivot_from_left(graph))


def _pivot_from_left(graph: BipartiteGraph) -> bool:
    """Whether anchoring the wedge enumeration on the left side is cheaper.

    Anchoring on the left walks, for every left anchor, the fans of its
    right-side neighbours, so its work is proportional to the number of
    wedges *centred on right vertices* — and symmetrically for the right.
    The comparison therefore picks the anchor side whose opposite side has
    the smaller wedge count.
    """
    wedges_centred_on_right = sum(
        d * (d - 1) // 2 for d in (graph.degree_of_right(u) for u in graph.right_vertices())
    )
    wedges_centred_on_left = sum(
        d * (d - 1) // 2 for d in (graph.degree_of_left(v) for v in graph.left_vertices())
    )
    return wedges_centred_on_right <= wedges_centred_on_left


def _count_from_side(graph: BipartiteGraph, from_left: bool) -> int:
    """Count butterflies by accumulating co-neighbour pair counts.

    For each anchor, the two-hop peers are gathered as the union of its
    middles' adjacency masks, and each peer's common-neighbour count is one
    word-parallel ``&`` + popcount against the anchor's adjacency.
    """
    total = 0
    if from_left:
        anchors = graph.left_vertices()
        adj = graph.adj_left_mask
        other_adj = graph.adj_right_mask
    else:
        anchors = graph.right_vertices()
        adj = graph.adj_right_mask
        other_adj = graph.adj_left_mask
    for anchor in anchors:
        anchor_mask = adj(anchor)
        peers = 0
        for middle in iter_bits(anchor_mask):
            peers |= other_adj(middle)
        # Each unordered same-side pair is visited once: only peers > anchor.
        peers >>= anchor + 1
        for offset in iter_bits(peers):
            common = (anchor_mask & adj(anchor + 1 + offset)).bit_count()
            total += common * (common - 1) // 2
    return total


def edge_butterfly_counts(graph: BipartiteGraph) -> Dict[Tuple[int, int], int]:
    """Number of butterflies containing each edge ``(left, right)``.

    The butterfly support of edge ``(v, u)`` equals the number of pairs
    ``(v', u')`` with ``v' ≠ v``, ``u' ≠ u`` such that all four edges exist.
    """
    return Peel(graph).supports()


def k_bitruss(graph: BipartiteGraph, k: int) -> BipartiteGraph:
    """Return the k-bitruss subgraph (same vertex id space, fewer edges).

    Edges whose butterfly support drops below ``k`` are peeled iteratively
    until every remaining edge is contained in at least ``k`` butterflies.
    Isolated vertices are kept (the id space is unchanged) so that the
    result can be compared edge-wise against the input.  The peel runs on
    masks (:meth:`repro.graph.cores.Peel.bitruss`) and the result graph is
    built once, from the surviving edges.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    peel = Peel(graph)
    if k:
        peel.bitruss(k)
    return peel.compact()[0]


def bitruss_number(graph: BipartiteGraph) -> Dict[Tuple[int, int], int]:
    """For every edge, the maximum ``k`` such that the edge survives in the k-bitruss.

    One peel runs through rising ``k``: the (k + 1)-bitruss is the
    (k + 1)-bitruss of the k-bitruss, and each level starts from the
    supports the previous one left.  Every level keeps only edges with at
    least ``k`` butterflies, so the loop ends once ``k`` passes the largest
    support (below |E|).  Suitable for the small graphs used in the tests
    and the case study, not for billion-edge inputs.
    """
    numbers: Dict[Tuple[int, int], int] = dict.fromkeys(graph.edges(), 0)
    peel = Peel(graph)
    support = None
    k = 0
    while peel.num_edges:
        k += 1
        support = peel.bitruss(k, support)
        for edge in support:
            numbers[edge] = k
    return numbers
