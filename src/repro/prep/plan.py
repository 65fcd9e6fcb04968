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
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .ordering import ORDER_STRATEGIES, choose_order_strategy
from .reduce import reduce_for_thresholds

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

    @property
    def is_identity_map(self) -> bool:
        """Whether reported solutions need no id translation."""
        return self.left_map is None and self.right_map is None

    def translate(self, solution):
        """Map a solution from reduced ids back to original-graph ids.

        Works for any ``Biplex``-shaped value (one with ``left`` /
        ``right`` id sets and an ``of(left_ids, right_ids)`` constructor);
        constructing through ``type(solution)`` keeps this module free of
        core-layer imports.
        """
        if self.is_identity_map:
            return solution
        left_map, right_map = self.left_map, self.right_map
        return type(solution).of(
            (left_map[v] for v in solution.left),
            (right_map[u] for u in solution.right),
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
        return PrepPlan(mode=mode, graph=graph, epoch=graph.epoch)
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
    """The plan for ``graph`` after it absorbed a mutation batch.

    ``previous`` is the superseded plan (same graph object and parameters)
    and ``inserts`` / ``deletes`` are the edge batches applied since; none
    of them is consulted.  The plan is :func:`prepare` on the mutated
    graph, so it is content-identical to a from-scratch plan and cursor
    fingerprints agree whichever entry point built it.  This is the
    hot-graph registry's rebuild-after-update entry point, kept apart from
    :func:`prepare` so that the two kinds of build are counted and timed
    separately.
    """
    return prepare(graph, k, mode, theta_left, theta_right, order_strategy)
