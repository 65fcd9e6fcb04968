"""iMB-style backtracking enumeration of maximal k-biplexes.

iMB (Sim et al. 2009; Yu et al., TKDE 2021) enumerates maximal k-biplexes
by backtracking over the two vertex sets with pruning rules driven by the
size constraints imposed on the output.  The exact prefix-tree data
structures of the original C++ implementation are not essential to its
behaviour; what matters for the paper's comparison is that

* it explores an include/exclude set-enumeration tree over the vertices of
  both sides (exponential delay — all the work may happen before the first
  output),
* its pruning power comes almost entirely from the size thresholds
  ``θ_L``/``θ_R`` (without them it degenerates to near-exhaustive search,
  which is why it cannot handle the larger datasets in Figure 7), and
* with thresholds it prunes branches whose candidate sets cannot reach the
  required sizes (used in the Figure 10 comparison).

This implementation follows that design: a binary include/exclude search
over the combined vertex universe with hereditary candidate filtering,
maximality verification against the excluded set, and size-based pruning.

The ``_fits`` / ``_add`` hot loop uses per-vertex non-neighbour masks: the
members of the current biplex a candidate misses are found with one
word-parallel ``&`` plus a popcount, and only their (at most ``k``) bits
are walked for the per-member miss-budget checks.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.biplex import Biplex
from ..graph.bipartite import BipartiteGraph


class _SearchLimit(Exception):
    """Raised internally when a time or result limit is reached."""


class IMB:
    """Backtracking maximal k-biplex enumerator with optional size constraints.

    Parameters
    ----------
    graph:
        Input bipartite graph.
    k:
        Biplex parameter.  ``k = 0`` is allowed and enumerates maximal
        bicliques (used by :mod:`repro.baselines.biclique`).
    theta_left, theta_right:
        Minimum sizes of the two sides of reported biplexes; 0 disables the
        constraint (and most of the pruning, as in the paper).
    max_results, time_limit:
        Optional limits; the search stops when either is reached.
    prep:
        Preprocessing pipeline (:mod:`repro.prep`), sharing the traversal
        engines' semantics: ``None`` resolves via ``REPRO_PREP`` (default
        ``"core"`` — the threshold-driven core/bitruss reduction, a no-op
        without thresholds), ``"core+order"`` additionally explores the
        include/exclude universe in degeneracy order, ``"off"`` searches
        the raw graph in canonical order exactly as before.  Results are
        always reported in the original graph's vertex ids.  The
        reduction is sound here for the same reason as for the
        traversals: any vertex addable to a θ-large solution lies inside
        some θ-large *maximal* biplex, which survives the reduction
        entirely — so reduced-graph maximality implies original-graph
        maximality for every reported solution.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        k: int,
        theta_left: int = 0,
        theta_right: int = 0,
        max_results: Optional[int] = None,
        time_limit: Optional[float] = None,
        prep: Optional[str] = None,
    ) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        from ..prep import prepare

        # The reduction bounds hold for k = 0 (bicliques) too: every vertex
        # of a θ-large biclique is adjacent to *all* of the other side.
        self._prep_plan = prepare(
            graph, k, prep, theta_left=theta_left, theta_right=theta_right
        )
        self.graph = g = self._prep_plan.graph
        self.k = k
        # Per-vertex non-neighbour masks over the other side.
        full_left = (1 << g.n_left) - 1
        full_right = (1 << g.n_right) - 1
        self._non_adj_left = [full_right & ~g.adj_left_mask(v) for v in g.left_vertices()]
        self._non_adj_right = [full_left & ~g.adj_right_mask(u) for u in g.right_vertices()]
        self.theta_left = theta_left
        self.theta_right = theta_right
        self.max_results = max_results
        self.time_limit = time_limit
        self.results: List[Biplex] = []
        self.truncated = False
        self._start = 0.0

    # ------------------------------------------------------------------ #
    def enumerate(self) -> List[Biplex]:
        """Run the backtracking search and return the maximal k-biplexes found."""
        self.results = []
        self.truncated = False
        self._start = time.perf_counter()
        # The combined vertex universe: ("L", id) and ("R", id) pairs.  Left
        # vertices first, then right — ascending ids, or the prep plan's
        # candidate ordering when one is set; the order only affects
        # traversal order, not the output set.
        plan = self._prep_plan
        left_order = (
            plan.left_order if plan.left_order is not None else self.graph.left_vertices()
        )
        right_order = (
            plan.right_order
            if plan.right_order is not None
            else self.graph.right_vertices()
        )
        universe: List[Tuple[str, int]] = [("L", v) for v in left_order]
        universe.extend(("R", u) for u in right_order)
        if not universe:
            return []
        try:
            self._branch(set(), set(), 0, 0, {}, {}, universe, [])
        except _SearchLimit:
            self.truncated = True
        return self.results

    def run(self) -> Iterator[Biplex]:
        """Iterator interface (materialises the full result list first).

        iMB genuinely has this behaviour: its delay is exponential because
        solutions may only be confirmed maximal late in the search, so
        streaming them early is not possible in general.
        """
        yield from self.enumerate()

    # ------------------------------------------------------------------ #
    def _branch(
        self,
        left: Set[int],
        right: Set[int],
        left_mask: int,
        right_mask: int,
        left_misses: Dict[int, int],
        right_misses: Dict[int, int],
        candidates: List[Tuple[str, int]],
        excluded: List[Tuple[str, int]],
    ) -> None:
        self._check_limits()
        if not self._can_reach_thresholds(left, right, candidates):
            return
        local_excluded = list(excluded)
        for index, candidate in enumerate(candidates):
            if self._fits(left_mask, right_mask, left_misses, right_misses, candidate):
                new_left, new_right = set(left), set(right)
                new_left_misses, new_right_misses = dict(left_misses), dict(right_misses)
                self._add(
                    new_left, new_right, left_mask, right_mask,
                    new_left_misses, new_right_misses, candidate,
                )
                side, vertex = candidate
                new_left_mask = left_mask | (1 << vertex) if side == "L" else left_mask
                new_right_mask = right_mask | (1 << vertex) if side == "R" else right_mask
                remaining = candidates[index + 1 :]
                new_candidates = [
                    c
                    for c in remaining
                    if self._fits(
                        new_left_mask, new_right_mask, new_left_misses, new_right_misses, c
                    )
                ]
                new_excluded = [
                    x
                    for x in local_excluded
                    if self._fits(
                        new_left_mask, new_right_mask, new_left_misses, new_right_misses, x
                    )
                ]
                self._branch(
                    new_left,
                    new_right,
                    new_left_mask,
                    new_right_mask,
                    new_left_misses,
                    new_right_misses,
                    new_candidates,
                    new_excluded,
                )
            local_excluded.append(candidate)
        if not left and not right:
            return
        if len(left) < self.theta_left or len(right) < self.theta_right:
            return
        if not any(
            self._fits(left_mask, right_mask, left_misses, right_misses, x)
            for x in local_excluded
        ):
            self._emit(Biplex.of(left, right))

    def _can_reach_thresholds(
        self, left: Set[int], right: Set[int], candidates: List[Tuple[str, int]]
    ) -> bool:
        """Size-constraint pruning: can this branch still reach θ_L / θ_R?"""
        if not self.theta_left and not self.theta_right:
            return True
        available_left = sum(1 for side, _ in candidates if side == "L")
        available_right = len(candidates) - available_left
        if len(left) + available_left < self.theta_left:
            return False
        if len(right) + available_right < self.theta_right:
            return False
        return True

    def _fits(
        self,
        left_mask: int,
        right_mask: int,
        left_misses: Dict[int, int],
        right_misses: Dict[int, int],
        candidate: Tuple[str, int],
    ) -> bool:
        """Whether adding ``candidate`` keeps the current subgraph a k-biplex."""
        side, vertex = candidate
        if side == "L":
            missed, other_misses = right_mask & self._non_adj_left[vertex], right_misses
        else:
            missed, other_misses = left_mask & self._non_adj_right[vertex], left_misses
        if missed.bit_count() > self.k:
            return False
        while missed:
            low = missed & -missed
            if other_misses[low.bit_length() - 1] + 1 > self.k:
                return False
            missed ^= low
        return True

    def _add(
        self,
        left: Set[int],
        right: Set[int],
        left_mask: int,
        right_mask: int,
        left_misses: Dict[int, int],
        right_misses: Dict[int, int],
        candidate: Tuple[str, int],
    ) -> None:
        side, vertex = candidate
        if side == "L":
            missed = right_mask & self._non_adj_left[vertex]
            own_misses, other_misses = missed.bit_count(), right_misses
            left.add(vertex)
            left_misses[vertex] = own_misses
        else:
            missed = left_mask & self._non_adj_right[vertex]
            own_misses, other_misses = missed.bit_count(), left_misses
            right.add(vertex)
            right_misses[vertex] = own_misses
        while missed:
            low = missed & -missed
            other_misses[low.bit_length() - 1] += 1
            missed ^= low

    def _emit(self, solution: Biplex) -> None:
        self.results.append(self._prep_plan.translate(solution))
        if self.max_results is not None and len(self.results) >= self.max_results:
            raise _SearchLimit

    def _check_limits(self) -> None:
        if self.time_limit is not None and time.perf_counter() - self._start > self.time_limit:
            raise _SearchLimit


def enumerate_mbps_imb(
    graph: BipartiteGraph,
    k: int,
    theta_left: int = 0,
    theta_right: int = 0,
    max_results: Optional[int] = None,
    time_limit: Optional[float] = None,
    prep: Optional[str] = None,
) -> List[Biplex]:
    """Functional wrapper around :class:`IMB`."""
    return IMB(
        graph,
        k,
        theta_left=theta_left,
        theta_right=theta_right,
        max_results=max_results,
        time_limit=time_limit,
        prep=prep,
    ).enumerate()
