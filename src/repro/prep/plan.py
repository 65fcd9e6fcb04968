"""The :class:`PrepPlan`: one prepared view of a graph that entry points consume.

Every enumeration entry point (the traversal engine, the baselines, the
CLI) prepares the input once and then runs against the plan: the (possibly
reduced) graph, the ``new id → original id`` maps to translate reported
solutions back, and the candidate orderings.  Three modes:

* ``"off"`` — no reduction, canonical vertex order; reproduces the
  pre-plan behaviour bit for bit.
* ``"core"`` (the default) — threshold-driven (α, β)-core / bitruss
  reduction (:mod:`repro.prep.reduce`); a no-op when both size thresholds
  are 0, so plain enumerations are unchanged.
* ``"core+order"`` — the reduction plus degeneracy-style candidate
  ordering (:mod:`repro.prep.ordering`); same solution set, different
  traversal order.

The ``REPRO_PREP`` environment variable flips the default globally (CI
runs a tier-1 leg with ``REPRO_PREP=core+order``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable, List, Optional, Tuple

from .ordering import ORDER_STRATEGIES, choose_order_strategy
from .reduce import (
    bitruss_support_bound,
    reduce_for_thresholds,
    repair_core_sets,
    threshold_core_bounds,
)

#: Modes accepted by :func:`prepare` and every ``prep=`` parameter.
PREP_MODES = ("off", "core", "core+order")

#: Environment variable overriding :func:`default_prep`.
PREP_ENV_VAR = "REPRO_PREP"

#: Environment variable overriding :func:`default_order_strategy`.
ORDER_ENV_VAR = "REPRO_ORDER"


def default_order_strategy() -> str:
    """The candidate-ordering strategy used when none is requested.

    ``degeneracy`` by default (the paper's BBK-style peel); set
    ``REPRO_ORDER`` to ``degree``, ``gamma`` or ``auto`` to flip it
    globally, mirroring ``REPRO_PREP``.
    """
    strategy = os.environ.get(ORDER_ENV_VAR, "degeneracy")
    if strategy not in ORDER_STRATEGIES:
        raise ValueError(
            f"{ORDER_ENV_VAR}={strategy!r} is not a valid order strategy; "
            f"expected one of {tuple(ORDER_STRATEGIES)}"
        )
    return strategy


def resolve_order_strategy(strategy: Optional[str]) -> str:
    """Resolve an explicit or defaulted ordering strategy, validating it."""
    if strategy is None:
        return default_order_strategy()
    if strategy not in ORDER_STRATEGIES:
        raise ValueError(
            f"unknown order strategy {strategy!r}; "
            f"expected one of {tuple(ORDER_STRATEGIES)}"
        )
    return strategy


def default_prep() -> str:
    """The preprocessing mode used when none is requested explicitly.

    ``core`` by default: the reduction is provably solution-preserving,
    free when no size thresholds are set, and a large win on thresholded
    workloads.  Set ``REPRO_PREP`` to ``core+order`` to add cost-aware
    candidate ordering globally, or ``off`` to restore raw-graph
    canonical-order enumeration.
    """
    mode = os.environ.get(PREP_ENV_VAR, "core")
    if mode not in PREP_MODES:
        raise ValueError(
            f"{PREP_ENV_VAR}={mode!r} is not a valid prep mode; expected one of {PREP_MODES}"
        )
    return mode


def resolve_prep(mode: Optional[str]) -> str:
    """Resolve an explicit or defaulted prep mode, validating it."""
    if mode is None:
        return default_prep()
    if mode not in PREP_MODES:
        raise ValueError(f"unknown prep mode {mode!r}; expected one of {PREP_MODES}")
    return mode


@dataclass
class PrepPlan:
    """A prepared enumeration input: reduced graph, id maps, orderings.

    ``left_map`` / ``right_map`` are ``new id → original id`` lists and
    are ``None`` when the reduction removed nothing (``graph`` is then the
    input object itself).  ``left_order`` / ``right_order`` are candidate
    orderings over the *reduced* id space, ``None`` for canonical order.
    """

    mode: str
    graph: object
    left_map: Optional[List[int]] = None
    right_map: Optional[List[int]] = None
    left_order: Optional[List[int]] = None
    right_order: Optional[List[int]] = None
    removed_left: int = 0
    removed_right: int = 0
    removed_edges: int = 0
    #: The *concrete* ordering strategy that produced ``left_order`` /
    #: ``right_order`` (``auto`` resolves to its pick); ``None`` unless
    #: mode is ``core+order``.
    order_strategy: Optional[str] = None
    #: The mutation epoch of the input graph this plan was prepared at
    #: (see :attr:`repro.graph.BipartiteGraph.epoch`).  Cursor fingerprints
    #: and the service plan/result caches key on it: a plan whose epoch
    #: trails the graph's is stale.
    epoch: int = 0
    #: First-stage (α, β)-core survivors in *original* ids — the anchor
    #: :func:`reprepare` repairs locally after a mutation batch.  ``None``
    #: when the thresholds imposed no bounds (or mode is ``off``).
    core_left: Optional[FrozenSet[int]] = None
    core_right: Optional[FrozenSet[int]] = None

    @property
    def is_identity_map(self) -> bool:
        """Whether reported solutions need no id translation."""
        return self.left_map is None and self.right_map is None

    def translate(self, solution):
        """Map a solution from reduced ids back to original-graph ids.

        Works for any ``Biplex``-shaped value (a frozen dataclass with
        ``left`` / ``right`` frozensets); constructing through
        ``type(solution)`` keeps this module free of core-layer imports.
        """
        if self.is_identity_map:
            return solution
        left_map, right_map = self.left_map, self.right_map
        return type(solution)(
            left=frozenset(left_map[v] for v in solution.left),
            right=frozenset(right_map[u] for u in solution.right),
        )


def prepare(
    graph,
    k: int,
    mode: Optional[str] = None,
    theta_left: int = 0,
    theta_right: int = 0,
    order_strategy: Optional[str] = None,
) -> PrepPlan:
    """Build the :class:`PrepPlan` for one enumeration run.

    ``mode=None`` resolves via :func:`default_prep` (the ``REPRO_PREP``
    environment variable, falling back to ``core``).  The reduction uses
    the asymmetric threshold bounds of :mod:`repro.prep.reduce` — sound
    for ``theta_left != theta_right`` — and the ordering (``core+order``
    only) is computed on the reduced graph with the named strategy from
    :data:`repro.prep.ordering.ORDER_STRATEGIES`; ``order_strategy=None``
    resolves via ``REPRO_ORDER`` (default ``degeneracy``), and ``auto``
    picks from graph-shape statistics.  The plan records the concrete
    strategy used in :attr:`PrepPlan.order_strategy`.
    """
    mode = resolve_prep(mode)
    if mode == "off":
        return PrepPlan(mode=mode, graph=graph, epoch=getattr(graph, "epoch", 0))
    reduction = reduce_for_thresholds(graph, k, theta_left, theta_right)
    left_order = right_order = None
    resolved_strategy: Optional[str] = None
    if mode == "core+order":
        resolved_strategy = resolve_order_strategy(order_strategy)
        if resolved_strategy == "auto":
            # Resolve on the *reduced* graph: that is the shape the
            # ordering will actually run over.
            resolved_strategy = choose_order_strategy(reduction.graph)
        left_order, right_order = ORDER_STRATEGIES[resolved_strategy](reduction.graph)
    return PrepPlan(
        mode=mode,
        graph=reduction.graph,
        left_map=reduction.left_map,
        right_map=reduction.right_map,
        left_order=left_order,
        right_order=right_order,
        removed_left=reduction.removed_left,
        removed_right=reduction.removed_right,
        removed_edges=reduction.removed_edges,
        order_strategy=resolved_strategy,
        epoch=reduction.epoch,
        core_left=reduction.core_left,
        core_right=reduction.core_right,
    )


def reprepare(
    graph,
    k: int,
    previous: PrepPlan,
    inserts: Iterable[Tuple[int, int]] = (),
    deletes: Iterable[Tuple[int, int]] = (),
    mode: Optional[str] = None,
    theta_left: int = 0,
    theta_right: int = 0,
    order_strategy: Optional[str] = None,
) -> PrepPlan:
    """Rebuild a plan after ``graph`` absorbed a mutation batch, locally.

    ``previous`` must be a plan built by :func:`prepare` over the *same
    graph object* with the same ``k`` / mode / thresholds / ordering
    (callers — the hot-graph registry — key plans by exactly those, so the
    contract holds by construction); ``inserts`` / ``deletes`` are the edge
    batches applied since, already folded into ``graph``.

    Strategy: repair the first-stage (α, β)-core from the plan's recorded
    survivor sets (:func:`repro.prep.reduce.repair_core_sets` — exact, and
    local to the affected neighborhood), then

    * if the core is unchanged and no applied edge has both endpoints
      inside it, the whole old fixpoint still stands — the previous plan is
      returned re-stamped with the new epoch (this is the streaming fraud
      fast path: camouflage edges land outside the thresholded core);
    * otherwise the remaining reduction pipeline re-runs only on the new
      core's induced subgraph and the id maps are spliced back through the
      compaction.  The reduction fixpoint is the unique maximum subgraph
      meeting the core/support bounds, so the spliced result is
      content-identical to a from-scratch :func:`prepare` — cursor
      fingerprints agree no matter which path built the plan.

    Falls back to :func:`prepare` when nothing incremental applies
    (mode ``off``, unbounded thresholds, or a plan without core sets).
    """
    mode = resolve_prep(mode)
    if (
        previous is None
        or mode == "off"
        or previous.mode != mode
        or previous.core_left is None
        or previous.core_right is None
    ):
        return prepare(graph, k, mode, theta_left, theta_right, order_strategy)
    alpha, beta = threshold_core_bounds(k, theta_left, theta_right)
    support = bitruss_support_bound(k, theta_left, theta_right)
    if alpha == 0 and beta == 0 and support < 1:
        return prepare(graph, k, mode, theta_left, theta_right, order_strategy)
    inserts = list(inserts)
    deletes = list(deletes)
    touched_left = {v for v, _ in inserts} | {v for v, _ in deletes}
    touched_right = {u for _, u in inserts} | {u for _, u in deletes}
    core_left, core_right = repair_core_sets(
        graph,
        alpha,
        beta,
        previous.core_left,
        previous.core_right,
        touched_left,
        touched_right,
    )
    epoch = getattr(graph, "epoch", 0)
    touched_inside = any(
        v in core_left and u in core_right for v, u in inserts + deletes
    )
    if (
        not touched_inside
        and core_left == set(previous.core_left)
        and core_right == set(previous.core_right)
    ):
        return replace(previous, epoch=epoch)
    induced, left_ids, right_ids = graph.induced_subgraph_with_mapping(
        core_left, core_right
    )
    # The inner pipeline re-peels the (already-core) induced subgraph to
    # the same fixpoint a from-scratch run would reach; its maps are
    # relative to ``induced`` and splice through ``left_ids``/``right_ids``.
    reduction = reduce_for_thresholds(induced, k, theta_left, theta_right)
    if reduction.is_identity:
        final_graph = reduction.graph
        left_map, right_map = left_ids, right_ids
    else:
        final_graph = reduction.graph
        left_map = [left_ids[v] for v in reduction.left_map]
        right_map = [right_ids[u] for u in reduction.right_map]
    if (
        final_graph.n_left == graph.n_left
        and final_graph.n_right == graph.n_right
        and final_graph.num_edges == graph.num_edges
    ):
        # The repaired reduction removed nothing: canonicalize to the
        # identity plan a from-scratch prepare() would return (maps of
        # None, the input object itself) so the two paths stay
        # content-identical plan for plan, not just fingerprint for
        # fingerprint.
        final_graph = graph
        left_map = right_map = None
    left_order = right_order = None
    resolved_strategy: Optional[str] = None
    if mode == "core+order":
        resolved_strategy = resolve_order_strategy(order_strategy)
        if resolved_strategy == "auto":
            resolved_strategy = choose_order_strategy(final_graph)
        left_order, right_order = ORDER_STRATEGIES[resolved_strategy](final_graph)
    return PrepPlan(
        mode=mode,
        graph=final_graph,
        left_map=left_map,
        right_map=right_map,
        left_order=left_order,
        right_order=right_order,
        removed_left=graph.n_left - final_graph.n_left,
        removed_right=graph.n_right - final_graph.n_right,
        removed_edges=graph.num_edges - final_graph.num_edges,
        order_strategy=resolved_strategy,
        epoch=epoch,
        core_left=frozenset(core_left),
        core_right=frozenset(core_right),
    )
