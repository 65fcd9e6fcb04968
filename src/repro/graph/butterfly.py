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

k-bitruss peeling is *incremental*: the butterfly supports are computed
once, and removing an edge only re-scores the edges that shared a butterfly
with it, instead of recomputing every support from scratch per round.  A
peeled edge has support < k by definition, so each removal walks fewer than
k butterflies.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, Optional, Tuple

from .bipartite import BipartiteGraph
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
    adj_left = graph.adj_left_mask
    adj_right = graph.adj_right_mask
    support: Dict[Tuple[int, int], int] = {}
    for v, u in graph.edges():
        adj_v = adj_left(v)
        count = 0
        # Every v' adjacent to u shares at least the common neighbour u
        # with v; the remaining common neighbours are the u' candidates.
        for v_prime in iter_bits(adj_right(u) & ~(1 << v)):
            count += (adj_left(v_prime) & adj_v).bit_count() - 1
        support[(v, u)] = count
    return support


def _butterfly_mates(graph: BipartiteGraph, v: int, u: int) -> Iterator[Tuple[int, int]]:
    """Pairs ``(v', u')`` forming a butterfly with the edge ``(v, u)``.

    Assumes ``(v, u)`` itself has already been removed from ``graph``, so
    neither endpoint appears in the other's adjacency.
    """
    adj_right = graph.adj_right_mask
    fan_u = adj_right(u)
    for u_prime in iter_bits(graph.adj_left_mask(v)):
        for v_prime in iter_bits(fan_u & adj_right(u_prime)):
            yield v_prime, u_prime


def k_bitruss(
    graph: BipartiteGraph,
    k: int,
    supports: Optional[Dict[Tuple[int, int], int]] = None,
) -> BipartiteGraph:
    """Return the k-bitruss subgraph (same vertex id space, fewer edges).

    Edges whose butterfly support drops below ``k`` are peeled iteratively
    until every remaining edge is contained in at least ``k`` butterflies.
    Isolated vertices are kept (the id space is unchanged) so that the
    result can be compared edge-wise against the input.

    Peeling is incremental: supports are computed once, and removing an edge
    decrements only the supports of edges that shared a butterfly with it
    (three per butterfly), so each butterfly is touched at most once overall
    instead of once per peeling round.

    ``supports`` optionally provides precomputed per-edge butterfly counts
    for exactly ``graph``'s edge set (the incremental maintenance layer in
    :mod:`repro.graph.dynamic` hands its maintained counts here to skip the
    from-scratch pass).  The mapping is copied, never mutated.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    working = graph.copy()
    if k == 0:
        return working
    support = dict(supports) if supports is not None else edge_butterfly_counts(working)
    queue = deque(edge for edge, count in support.items() if count < k)
    while queue:
        v, u = queue.popleft()
        if (v, u) not in support:
            continue  # already peeled via an earlier butterfly update
        del support[(v, u)]
        working.remove_edge(v, u)
        for v_prime, u_prime in _butterfly_mates(working, v, u):
            for edge in ((v, u_prime), (v_prime, u), (v_prime, u_prime)):
                support[edge] -= 1
                # Enqueue exactly on the >= k -> < k transition; edges that
                # started below k are already in the initial queue.
                if support[edge] == k - 1:
                    queue.append(edge)
    return working


def bitruss_number(graph: BipartiteGraph) -> Dict[Tuple[int, int], int]:
    """For every edge, the maximum ``k`` such that the edge survives in the k-bitruss.

    Computed by repeated peeling; suitable for the small graphs used in the
    tests and the case study, not for billion-edge inputs.
    """
    numbers: Dict[Tuple[int, int], int] = {edge: 0 for edge in graph.edges()}
    working = graph.copy()
    k = 1
    while working.num_edges > 0:
        truss = k_bitruss(working, k)
        surviving = set(truss.edges())
        for edge in list(numbers.keys()):
            if edge in surviving:
                numbers[edge] = k
        working = truss
        if truss.num_edges == 0:
            break
        k += 1
        if k > graph.num_edges:
            # An edge's support is strictly below |E| (every butterfly uses
            # three other edges), so some edge must peel before k reaches
            # |E| + 1.  Returning partial numbers here would silently corrupt
            # the decomposition — fail loudly instead.
            raise RuntimeError(
                "bitruss_number failed to converge: k exceeded the edge count "
                f"({graph.num_edges}) with {working.num_edges} edges still alive"
            )
    return numbers
