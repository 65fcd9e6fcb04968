"""Threshold-driven graph reduction: (α, β)-core and bitruss peeling.

Both reductions are *safe by construction* for thresholded enumeration —
they only remove vertices/edges that provably cannot participate in any
maximal k-biplex meeting the ``(θ_L, θ_R)`` size thresholds:

* **(α, β)-core** — a left vertex ``v`` of a k-biplex ``H`` with
  ``|R_H| ≥ θ_R`` misses at most ``k`` of ``R_H``, so
  ``deg_G(v) ≥ deg_H(v) ≥ θ_R − k``; symmetrically
  ``deg_G(u) ≥ θ_L − k`` for right vertices.  Every qualifying biplex
  therefore survives the ``(θ_R − k, θ_L − k)``-core (note the swap:
  ``α`` constrains *left* degrees against the *right* threshold).  The
  bound is asymmetric on purpose — the previous large-MBP preprocessing
  applied ``min(θ_L, θ_R) − k`` to *both* sides, which over-peels the
  unconstrained side when the thresholds differ (e.g. ``θ_L = 0``).

* **t-bitruss** — every edge ``(v, u)`` of a qualifying biplex ``H`` is
  contained in at least ``t`` butterflies *within* ``H``: ``u`` has
  ``a ≥ θ_L − k − 1`` other neighbours in ``L_H`` and ``v`` has
  ``b ≥ θ_R − k − 1`` other neighbours in ``R_H``; of the ``a · b``
  candidate wedge pairs at most ``a · k`` lack the closing edge (each
  candidate left vertex misses at most ``k`` of ``R_H``), giving
  ``support ≥ a · (b − k)`` — and the mirrored bound ``b · (a − k)``.
  Since the edge-support property is closed under union, the maximal
  subgraph with it (the t-bitruss) contains every qualifying biplex with
  all of its edges.  Peeling edges preserves the *solution set* exactly:
  removing edges only increases miss counts, so any extension possible in
  the peeled graph is possible in ``G``; conversely a qualifying solution
  maximal in ``G`` stays maximal in the peeled graph because any blocking
  extension would itself sit inside a (surviving) qualifying biplex.

The reduction returns a compacted graph plus ``new id → original id`` maps
for both sides.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from ..graph.cores import alpha_beta_core, alpha_beta_core_subgraph


def threshold_core_bounds(k: int, theta_left: int, theta_right: int) -> Tuple[int, int]:
    """The ``(α, β)`` degree bounds implied by the size thresholds.

    ``α`` (left-vertex degrees) derives from the *right* threshold and vice
    versa; a threshold of 0 imposes no bound on the opposite side.
    """
    return max(theta_right - k, 0), max(theta_left - k, 0)


def bitruss_support_bound(k: int, theta_left: int, theta_right: int) -> int:
    """Minimum butterfly support of any edge of a ``(θ_L, θ_R)``-large k-biplex.

    ``max(a(b − k), b(a − k))`` with ``a = θ_L − k − 1`` and
    ``b = θ_R − k − 1`` (see the module docstring); 0 when the thresholds
    are too small to guarantee anything, in which case bitruss peeling is
    skipped.
    """
    if theta_left <= 0 or theta_right <= 0:
        return 0
    a = theta_left - k - 1
    b = theta_right - k - 1
    bound = 0
    if a > 0 and b - k > 0:
        bound = a * (b - k)
    if b > 0 and a - k > 0:
        bound = max(bound, b * (a - k))
    return bound


def bound_core_sets(
    graph,
    k: int,
    bound: int,
    theta_left: int = 0,
    theta_right: int = 0,
) -> Tuple[Set[int], Set[int]]:
    """Survivor sets of the *incumbent-bound* re-reduction (no compaction).

    Mid-run, once a solver objective holds a size lower bound ``L``
    (= ``bound``), any still-useful k-biplex ``H`` satisfies
    ``|L_H| + |R_H| >= L`` on top of the per-side thresholds — so with
    ``s_l`` / ``s_r`` surviving vertices per side it also satisfies
    ``|R_H| >= L - s_l`` and ``|L_H| >= L - s_r``.  Those implied
    thresholds feed :func:`threshold_core_bounds` (the usual
    ``alpha = max(θ_R - k, 0)`` swap), the (α, β)-core peel shrinks the
    sides, the implied thresholds rise, and the loop repeats **to the
    fixpoint**.  Every qualifying biplex survives each round by the
    classic core argument, so it survives the fixpoint.

    Returns the surviving ``(left, right)`` vertex sets in the *input
    graph's* id space — deliberately uncompacted, because the engine uses
    them as membership oracles for subtree upper bounds
    (``|core_left| + |R ∩ core_right|``), not as a new traversal graph.
    """
    survivors_left = graph.n_left
    survivors_right = graph.n_right
    left: Set[int] = set(graph.left_vertices())
    right: Set[int] = set(graph.right_vertices())
    while True:
        implied_left = max(theta_left, bound - survivors_right)
        implied_right = max(theta_right, bound - survivors_left)
        alpha, beta = threshold_core_bounds(k, implied_left, implied_right)
        if alpha == 0 and beta == 0:
            return left, right
        left, right = alpha_beta_core(graph, alpha, beta)
        if len(left) == survivors_left and len(right) == survivors_right:
            return left, right
        survivors_left = len(left)
        survivors_right = len(right)
        if not survivors_left or not survivors_right:
            return left, right


def repair_core_sets(
    graph,
    alpha: int,
    beta: int,
    old_left: Set[int],
    old_right: Set[int],
    touched_left: Set[int],
    touched_right: Set[int],
) -> Tuple[Set[int], Set[int]]:
    """Exact (α, β)-core of a mutated graph, repaired from the old core.

    ``old_left`` / ``old_right`` are the core sets of the graph *before* a
    mutation batch; ``touched_left`` / ``touched_right`` are the endpoints
    of every applied edge.  Every post-mutation core member outside the old
    core is reachable from a touched vertex through old non-core vertices
    whose total degree meets their side's bound: a connected chunk of new
    members containing no touched vertex would have had identical degrees
    before the batch and so would have qualified then, contradicting the
    old core's maximality.  So the BFS closure below over-approximates the
    new membership, and one exact peel of ``old core ∪ closure`` (degrees
    restricted to that candidate set) lands on the unique new core.

    Cost is O(edges incident to the candidates) — the affected
    neighborhood plus the old core, never the whole graph.
    """
    cand_left: Set[int] = set(old_left)
    cand_right: Set[int] = set(old_right)
    grow = deque()
    for v in touched_left:
        if v not in cand_left and graph.degree_of_left(v) >= alpha:
            cand_left.add(v)
            grow.append(("L", v))
    for u in touched_right:
        if u not in cand_right and graph.degree_of_right(u) >= beta:
            cand_right.add(u)
            grow.append(("R", u))
    while grow:
        side, vertex = grow.popleft()
        if side == "L":
            for u in graph.neighbors_of_left(vertex):
                if u not in cand_right and graph.degree_of_right(u) >= beta:
                    cand_right.add(u)
                    grow.append(("R", u))
        else:
            for v in graph.neighbors_of_right(vertex):
                if v not in cand_left and graph.degree_of_left(v) >= alpha:
                    cand_left.add(v)
                    grow.append(("L", v))
    left_deg = {
        v: sum(1 for u in graph.neighbors_of_left(v) if u in cand_right)
        for v in cand_left
    }
    right_deg = {
        u: sum(1 for v in graph.neighbors_of_right(u) if v in cand_left)
        for u in cand_right
    }
    peel = deque()
    for v, degree in left_deg.items():
        if degree < alpha:
            peel.append(("L", v))
    for u, degree in right_deg.items():
        if degree < beta:
            peel.append(("R", u))
    while peel:
        side, vertex = peel.popleft()
        if side == "L":
            if vertex not in cand_left:
                continue
            cand_left.discard(vertex)
            for u in graph.neighbors_of_left(vertex):
                if u in cand_right:
                    right_deg[u] -= 1
                    if right_deg[u] == beta - 1:
                        peel.append(("R", u))
        else:
            if vertex not in cand_right:
                continue
            cand_right.discard(vertex)
            for v in graph.neighbors_of_right(vertex):
                if v in cand_left:
                    left_deg[v] -= 1
                    if left_deg[v] == alpha - 1:
                        peel.append(("L", v))
    return cand_left, cand_right


@dataclass
class Reduction:
    """Result of :func:`reduce_for_thresholds`.

    ``left_map`` / ``right_map`` are ``new id → original id`` lists; both
    are ``None`` when the reduction removed nothing (``graph`` is then the
    input object itself, not a copy).
    """

    graph: object
    left_map: Optional[List[int]]
    right_map: Optional[List[int]]
    removed_left: int = 0
    removed_right: int = 0
    removed_edges: int = 0
    #: The mutation epoch of the input graph this reduction was computed
    #: at (see :attr:`repro.graph.BipartiteGraph.epoch`); consumers treat
    #: an epoch mismatch as staleness.
    epoch: int = 0
    #: Survivors (original ids) of the *first* (α, β)-core stage — the
    #: anchor for incremental re-reduction after a mutation batch
    #: (:func:`repro.prep.plan.reprepare` repairs this core locally and
    #: re-runs the rest of the pipeline only inside it).  ``None`` when the
    #: thresholds imposed no bounds.
    core_left: Optional[FrozenSet[int]] = None
    core_right: Optional[FrozenSet[int]] = None

    @property
    def is_identity(self) -> bool:
        return self.left_map is None and self.right_map is None


def reduce_for_thresholds(
    graph, k: int, theta_left: int = 0, theta_right: int = 0
) -> Reduction:
    """Shrink ``graph`` to the part that can hold ``(θ_L, θ_R)``-large k-biplexes.

    Pipeline: (α, β)-core peel → compact, then alternate bitruss peels
    (when the support bound is positive) with further core peels *until
    the graph stops shrinking*.  Each stage only ever removes
    vertices/edges, so composing them is safe; the returned maps compose
    the compactions.  The fixpoint matters beyond reduction strength:
    parallel workers re-run the preparation on the already-reduced graph
    they receive, and only a fixpoint guarantees they reproduce it (and
    its vertex id space) exactly.  With both thresholds at 0 (plain
    enumeration) the reduction is the identity.
    """
    alpha, beta = threshold_core_bounds(k, theta_left, theta_right)
    support = bitruss_support_bound(k, theta_left, theta_right)
    epoch = getattr(graph, "epoch", 0)
    if alpha == 0 and beta == 0 and support < 1:
        return Reduction(graph, None, None, epoch=epoch)
    original_edges = graph.num_edges
    reduced, left_map, right_map = alpha_beta_core_subgraph(graph, alpha, beta)
    core_left = frozenset(left_map)
    core_right = frozenset(right_map)
    if support >= 1:
        from ..graph.butterfly import k_bitruss

        while reduced.num_edges:
            trussed = k_bitruss(reduced, support)
            if trussed.num_edges == reduced.num_edges:
                break
            # Edges went away: degrees dropped, so the core bounds can bite
            # again; re-peel and fold the new compaction into the maps.
            # (The core peel may in turn drop edge supports below the
            # bound, hence the loop.)
            reduced, inner_left, inner_right = alpha_beta_core_subgraph(
                trussed, alpha, beta
            )
            left_map = [left_map[v] for v in inner_left]
            right_map = [right_map[u] for u in inner_right]
    if (
        reduced.n_left == graph.n_left
        and reduced.n_right == graph.n_right
        and reduced.num_edges == original_edges
    ):
        # Nothing was peeled: hand back the input object so downstream
        # consumers can skip the remapping entirely.
        return Reduction(
            graph, None, None, epoch=epoch, core_left=core_left, core_right=core_right
        )
    return Reduction(
        reduced,
        left_map,
        right_map,
        removed_left=graph.n_left - reduced.n_left,
        removed_right=graph.n_right - reduced.n_right,
        removed_edges=original_edges - reduced.num_edges,
        epoch=epoch,
        core_left=core_left,
        core_right=core_right,
    )
