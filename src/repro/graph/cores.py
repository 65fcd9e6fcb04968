"""(α, β)-cores, and the one mask peel behind every graph reduction.

The (α, β)-core of a bipartite graph is the (unique) maximal vertex set in
which every remaining left vertex has degree at least ``α`` and every
remaining right vertex has degree at least ``β`` *within the set*.  The paper
uses it in two places:

* as a competitor cohesive structure in the fraud-detection case study
  (Figure 13), and
* as a preprocessing step for large-MBP enumeration: every MBP whose two
  sides are large lies inside a core whose bounds derive from the size
  thresholds, so the input graph can be shrunk before running the
  enumeration (Section 6.1, Figure 10; :mod:`repro.prep.reduce`).

:class:`Peel` is the state every reduction runs on: the (α, β)-core here,
and the threshold reduction of :mod:`repro.prep.reduce`, which alternates
its core and bitruss peels.  It holds one adjacency mask per vertex, kept
*live* (a peeled vertex or edge is cleared from both endpoints' masks),
plus one alive mask per side, and builds at most one graph.  Both of its
peels are order-independent, so any interleaving of its steps reaches the
same fixpoint.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from .bipartite import BipartiteGraph
from .protocol import iter_bits

Edge = Tuple[int, int]


def _ids(mask: int) -> List[int]:
    """Set-bit positions, ascending: O(n) over the binary digits, where
    :func:`iter_bits` on a wide mask is O(n² / 64)."""
    return [i for i, digit in enumerate(reversed(bin(mask))) if digit == "1"]


class Peel:
    """Live adjacency masks (``left[v]`` over right ids, ``right[u]`` over
    left ids) and alive masks of a graph being peeled; ids stay the source
    graph's until :meth:`compact`."""

    __slots__ = ("left", "right", "left_alive", "right_alive", "num_edges")

    def __init__(self, graph) -> None:
        self.left: List[int] = [graph.adj_left_mask(v) for v in range(graph.n_left)]
        self.right: List[int] = [graph.adj_right_mask(u) for u in range(graph.n_right)]
        self.left_alive = (1 << graph.n_left) - 1
        self.right_alive = (1 << graph.n_right) - 1
        self.num_edges = graph.num_edges

    def core(self, alpha: int, beta: int) -> bool:
        """Peel to the (α, β)-core; returns whether any vertex went.

        ``alpha`` bounds left degrees and ``beta`` right degrees; a bound of
        0 or below keeps that side whole.
        """
        left, right = self.left, self.right
        # Peeled vertices have empty masks and so enter the queue again;
        # the alive check skips them.
        queue = deque((True, v) for v, mask in enumerate(left) if mask.bit_count() < alpha)
        queue.extend((False, u) for u, mask in enumerate(right) if mask.bit_count() < beta)
        peeled = False
        while queue:
            is_left, vertex = queue.popleft()
            bit = 1 << vertex
            if is_left:
                if not self.left_alive & bit:
                    continue
                self.left_alive ^= bit
                own, other, bound = left, right, beta
            else:
                if not self.right_alive & bit:
                    continue
                self.right_alive ^= bit
                own, other, bound = right, left, alpha
            peeled = True
            neighbours = own[vertex]
            own[vertex] = 0
            self.num_edges -= neighbours.bit_count()
            for w in iter_bits(neighbours):
                other[w] ^= bit
                # Enqueue on the bound -> bound - 1 transition only; a
                # vertex already below its bound is in the queue.
                if other[w].bit_count() == bound - 1:
                    queue.append((not is_left, w))
        return peeled

    def supports(self) -> Dict[Edge, int]:
        """The number of butterflies through every live edge ``(v, u)``.

        Each ``v'`` adjacent to ``u`` shares at least ``u`` with ``v``; the
        other common neighbours are the ``u'`` closing a butterfly.
        """
        left = self.left
        fans = [list(iter_bits(mask)) for mask in self.right]
        support: Dict[Edge, int] = {}
        for v, adj_v in enumerate(left):
            for u in iter_bits(adj_v):
                count = 0
                for v_prime in fans[u]:
                    if v_prime != v:
                        count += (left[v_prime] & adj_v).bit_count() - 1
                support[(v, u)] = count
        return support

    def bitruss(self, t: int) -> None:
        """Peel every edge in fewer than ``t`` butterflies, to the fixpoint.

        Removing an edge re-scores only the three other edges of each
        butterfly it was in, so a butterfly is walked at most once.
        Vertices stay alive, even when isolated.
        """
        support = self.supports()
        left, right = self.left, self.right
        queue = deque(edge for edge, count in support.items() if count < t)
        while queue:
            edge = queue.popleft()
            if edge not in support:
                continue  # peeled already, through an earlier butterfly
            del support[edge]
            v, u = edge
            left[v] ^= 1 << u
            right[u] ^= 1 << v
            self.num_edges -= 1
            fan_u = right[u]
            for u_prime in iter_bits(left[v]):
                for v_prime in iter_bits(fan_u & right[u_prime]):
                    for mate in ((v, u_prime), (v_prime, u), (v_prime, u_prime)):
                        support[mate] -= 1
                        # Enqueue on the t -> t - 1 transition only.
                        if support[mate] == t - 1:
                            queue.append(mate)

    def survivors(self) -> Tuple[List[int], List[int]]:
        """The alive left and right vertex ids, ascending."""
        return _ids(self.left_alive), _ids(self.right_alive)

    def compact(self) -> Tuple[BipartiteGraph, List[int], List[int]]:
        """The live graph renumbered in ascending id order, plus the
        ``new id → original id`` maps of both sides."""
        left_ids, right_ids = self.survivors()
        right_index = {u: new for new, u in enumerate(right_ids)}
        left = self.left
        graph = BipartiteGraph(
            len(left_ids),
            len(right_ids),
            ((new, right_index[u]) for new, v in enumerate(left_ids) for u in iter_bits(left[v])),
        )
        return graph, left_ids, right_ids


def alpha_beta_core(graph: BipartiteGraph, alpha: int, beta: int) -> Tuple[Set[int], Set[int]]:
    """Return the vertex sets ``(left, right)`` of the (α, β)-core.

    ``alpha`` constrains left-vertex degrees and ``beta`` constrains
    right-vertex degrees.  Either set may be empty.  Values of 0 or below
    impose no constraint on that side.
    """
    peel = Peel(graph)
    peel.core(alpha, beta)
    left, right = peel.survivors()
    return set(left), set(right)
