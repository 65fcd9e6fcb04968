"""Explicit construction of the solution (multi-)graphs G, G_L, G_R and G_E.

The reverse-search algorithms never materialise the solution graph — it is
implicit in the DFS.  For the analysis in the paper (Figure 3 shows the four
solution graphs of the running example; Figure 11 reports their link counts
on real datasets) we build them explicitly:

* ``G``   — bTraversal's solution graph: every link generated by ThreeStep
  from every solution, growing with vertices of both sides.
* ``G_L`` — keep only *left-anchored* links (the almost-satisfying graph was
  formed with a left vertex).
* ``G_R`` — additionally keep only *right-shrinking* links
  (``R' ⊆ R`` for a link ``(L, R) → (L', R')``).
* ``G_E`` — additionally apply the exclusion strategy: drop a link whose
  target contains an anchor processed earlier in the same expansion, in
  canonical candidate order (ascending ids).

Each graph is one row of :data:`repro.core.traversal.VARIANTS` applied to
the links out of every solution, and :func:`build_solution_graph` names it
by that row's key: ``"btraversal"`` (G), ``"left-anchored-only"`` (G_L),
``"no-exclusion"`` (G_R) and ``"full"`` (G_E).  :data:`FIG11_COLUMNS`
pairs each key with its Figure 11 label.  A serial iTraversal run applies
the exclusion per expansion only (see
:class:`~repro.core.traversal.TraversalConfig`), so ``G_E`` does not
depend on the DFS order, and its links are exactly the ones a serial
canonical-order run generates: ``num_links`` equals
``ITraversal(graph, k, prep="off", jobs=1).stats.num_links``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..graph.bipartite import BipartiteGraph
from .biplex import Biplex, can_add_right, extend_to_maximal
from .btraversal import BTraversal
from .enum_almost_sat import enum_local_solutions
from .traversal import VARIANTS

#: Figure 11's columns, in its order: each solution graph's
#: :data:`~repro.core.traversal.VARIANTS` key and the label of the
#: algorithm whose links it counts (G, G_L, G_R, G_E).  The one label table
#: of the figure drivers and the examples.
FIG11_COLUMNS = (
    ("btraversal", "bTraversal"),
    ("left-anchored-only", "iTraversal-ES-RS"),
    ("no-exclusion", "iTraversal-ES"),
    ("full", "iTraversal"),
)


@dataclass
class SolutionGraph:
    """A solution multigraph: solutions as nodes, ThreeStep transitions as links."""

    nodes: List[Biplex] = field(default_factory=list)
    links: List[Tuple[Biplex, Biplex]] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        """Number of solutions."""
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        """Number of links, counted with multiplicity (it is a multigraph)."""
        return len(self.links)

    def out_degree(self, solution: Biplex) -> int:
        """Number of links leaving ``solution``."""
        return sum(1 for source, _ in self.links if source == solution)

    def adjacency(self) -> Dict[Biplex, List[Biplex]]:
        """Adjacency list representation (targets repeated per multiplicity)."""
        adjacency: Dict[Biplex, List[Biplex]] = defaultdict(list)
        for node in self.nodes:
            adjacency[node] = []
        for source, target in self.links:
            adjacency[source].append(target)
        return dict(adjacency)

    def reachable_from(self, start: Biplex) -> Set[Biplex]:
        """Set of solutions reachable from ``start`` (including itself)."""
        adjacency = self.adjacency()
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for target in adjacency.get(node, ()):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    def is_strongly_connected(self) -> bool:
        """Whether every solution reaches every other solution."""
        if not self.nodes:
            return True
        forward = self.reachable_from(self.nodes[0])
        if len(forward) != len(self.nodes):
            return False
        reversed_graph = SolutionGraph(
            nodes=list(self.nodes),
            links=[(target, source) for source, target in self.links],
        )
        backward = reversed_graph.reachable_from(self.nodes[0])
        return len(backward) == len(self.nodes)


def _links_from_solution(
    graph: BipartiteGraph,
    swapped: BipartiteGraph,
    solution: Biplex,
    k: int,
    variant: str,
) -> List[Tuple[Biplex, Biplex]]:
    """All links leaving ``solution`` under one row of ``VARIANTS``.

    ``swapped`` is ``graph.swap_sides()``: a right anchor's local
    solutions are the left-side ones there, swapped back.

    It stays unpruned on purpose.  Every local solution is built, probed
    with the set-based :func:`~repro.core.biplex.can_add_right` and
    extended, and the exclusion is decided on the extended target alone.
    The engine skips covered right sides inside EnumAlmostSat instead
    (the ``exclusion`` argument of
    :func:`~repro.core.enum_almost_sat.enum_local_solutions`), so ``G_E``'s
    link count is an independent oracle for the engine's ``num_links``.
    """
    left_anchored, right_shrinking, exclusion = VARIANTS[variant]
    links: List[Tuple[Biplex, Biplex]] = []
    left, right = solution.vertices()

    candidates: List[Tuple[str, int]] = [
        ("L", v) for v in graph.left_vertices() if v not in left
    ]
    if not left_anchored:
        candidates.extend(("R", u) for u in graph.right_vertices() if u not in right)

    # Left anchors already processed in this expansion (exclusion only).
    processed = 0
    for side, vertex in candidates:
        if side == "L":
            locals_iter = enum_local_solutions(graph, left, right, vertex, k)
        else:
            locals_iter = (
                Biplex(mirrored.right_mask, mirrored.left_mask)
                for mirrored in enum_local_solutions(swapped, right, left, vertex, k)
            )
        for local in locals_iter:
            if right_shrinking:
                # Algorithm 2, Line 7: drop the local solution when some right
                # vertex of G could still join it (a non-right-shrinking link),
                # then extend with left-side vertices only — the result is a
                # maximal k-biplex of G whose right side is contained in the
                # source's, i.e. a right-shrinking link.
                local_left, local_right = local.vertices()
                if any(
                    u not in local_right
                    and can_add_right(graph, local_left, local_right, u, k)
                    for u in graph.right_vertices()
                ):
                    continue
                target = extend_to_maximal(
                    graph, local.left_mask, local.right_mask, k, candidate_right=()
                )
            else:
                target = extend_to_maximal(graph, local.left_mask, local.right_mask, k)
            # Section 3.5: the earlier anchor's almost-satisfying graph
            # generates this target.  The target contains the local
            # solution, so this also covers a processed anchor in the local.
            if target.left_mask & processed:
                continue
            links.append((solution, target))
        if exclusion:
            processed |= 1 << vertex
    return links


def build_solution_graph(
    graph: BipartiteGraph, k: int, variant: str = "btraversal"
) -> SolutionGraph:
    """Construct the explicit solution graph of one algorithm variant.

    ``variant`` is a key of :data:`~repro.core.traversal.VARIANTS`:

    * ``"btraversal"``         — the full solution graph ``G``,
    * ``"left-anchored-only"`` — ``G_L`` (drop non-left-anchored links),
    * ``"no-exclusion"``       — ``G_R`` (additionally drop non-right-shrinking links),
    * ``"full"``               — ``G_E`` (additionally drop the links the
      exclusion strategy prunes; the links a serial canonical-order
      iTraversal run generates).

    The solution set (node set) is obtained from a complete bTraversal run,
    which is feasible only on small graphs — exactly the setting of
    Figure 11, which uses the four smallest datasets.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown solution-graph variant {variant!r}")
    solutions = BTraversal(graph, k).enumerate()
    result = SolutionGraph(nodes=list(solutions))
    swapped = graph.swap_sides()
    for solution in solutions:
        result.links.extend(_links_from_solution(graph, swapped, solution, k, variant))
    return result


def link_passes(graph: BipartiteGraph, k: int) -> Dict[str, Tuple[int, float]]:
    """``(links, seconds)`` of each Figure 11 column's link pass, by label.

    The four graphs share one node set, so one bTraversal run enumerates it
    and one ``swap_sides()`` serves every right anchor.  Each column's
    seconds time its own pass over the links alone, never the shared node
    set.
    """
    solutions = BTraversal(graph, k).enumerate()
    swapped = graph.swap_sides()
    passes: Dict[str, Tuple[int, float]] = {}
    for variant, label in FIG11_COLUMNS:
        start = time.perf_counter()
        links = sum(
            len(_links_from_solution(graph, swapped, solution, k, variant))
            for solution in solutions
        )
        passes[label] = (links, time.perf_counter() - start)
    return passes


def count_links(
    graph: BipartiteGraph, k: int, max_links: int = 10**10
) -> Dict[str, int]:
    """Link counts of G, G_L, G_R and G_E (the Figure 11 measurement).

    ``max_links`` mirrors the paper's ``UPP`` cap of 10^10 links.
    """
    return {
        label: min(links, max_links) for label, (links, _) in link_passes(graph, k).items()
    }
