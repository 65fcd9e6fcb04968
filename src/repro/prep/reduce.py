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

Both peels run on one mask state (:class:`repro.graph.cores.Peel`) that
alternates them to the fixpoint and builds the compacted graph once, with
``new id → original id`` maps for both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..graph.cores import Peel


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
    peel = Peel(graph)
    survivors_left, survivors_right = graph.n_left, graph.n_right
    while True:
        implied_left = max(theta_left, bound - survivors_right)
        implied_right = max(theta_right, bound - survivors_left)
        # The implied thresholds only rise, and the core for higher bounds
        # is the core of the current one, so the one state keeps peeling.
        if not peel.core(*threshold_core_bounds(k, implied_left, implied_right)):
            break
        survivors_left = peel.left_alive.bit_count()
        survivors_right = peel.right_alive.bit_count()
        if not survivors_left or not survivors_right:
            break
    left, right = peel.survivors()
    return set(left), set(right)


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

    @property
    def is_identity(self) -> bool:
        return self.left_map is None and self.right_map is None


def reduce_for_thresholds(
    graph, k: int, theta_left: int = 0, theta_right: int = 0
) -> Reduction:
    """Shrink ``graph`` to the part that can hold ``(θ_L, θ_R)``-large k-biplexes.

    Pipeline: (α, β)-core peel, then alternate bitruss peels (when the
    support bound is positive) with further core peels *until the graph
    stops shrinking*, all on one mask state; the survivors are compacted
    once.  Each step only ever removes vertices/edges, so composing them
    is safe.  The fixpoint matters beyond reduction strength: parallel
    workers re-run the preparation on the already-reduced graph they
    receive, and only a fixpoint guarantees they reproduce it (and its
    vertex id space) exactly.  With both thresholds at 0 (plain
    enumeration) the reduction is the identity.
    """
    alpha, beta = threshold_core_bounds(k, theta_left, theta_right)
    support = bitruss_support_bound(k, theta_left, theta_right)
    if alpha == 0 and beta == 0 and support < 1:
        return Reduction(graph, None, None)
    peel = Peel(graph)
    peeled = peel.core(alpha, beta)
    while support >= 1:
        edges = peel.num_edges
        peel.bitruss(support)
        if peel.num_edges == edges:
            break
        peeled = True
        # Edges went away, so degrees dropped and the core bounds can bite
        # again; a core peel may in turn drop supports below the bound.
        if not peel.core(alpha, beta):
            break
    if not peeled:
        # Nothing was peeled: hand back the input object so downstream
        # consumers can skip the remapping entirely.
        return Reduction(graph, None, None)
    reduced, left_map, right_map = peel.compact()
    return Reduction(
        reduced,
        left_map,
        right_map,
        removed_left=graph.n_left - reduced.n_left,
        removed_right=graph.n_right - reduced.n_right,
        removed_edges=graph.num_edges - reduced.num_edges,
    )
