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
* ``"core+order"`` — the reduction plus candidate ordering by the
  degeneracy peel (:func:`repro.prep.ordering.degeneracy_order`); same
  solution set, different traversal order.

The mode alone decides the candidate order, so it is all a plan cache
key or a status block needs to name it.  The ``REPRO_PREP`` environment
variable flips the default mode globally (CI runs a tier-1 leg with
``REPRO_PREP=core+order``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from .ordering import degeneracy_order
from .reduce import reduce_for_thresholds

#: Modes accepted by :func:`prepare` and every ``prep=`` parameter.
PREP_MODES = ("off", "core", "core+order")

#: Environment variable overriding :func:`default_prep`.
PREP_ENV_VAR = "REPRO_PREP"


def default_prep() -> str:
    """The preprocessing mode used when none is requested explicitly.

    ``core`` by default: the reduction is provably solution-preserving,
    free when no size thresholds are set, and a large win on thresholded
    workloads.  Set ``REPRO_PREP`` to ``core+order`` to add degeneracy
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
    """Resolve an explicit or defaulted prep mode, validating it.

    :class:`~repro.core.traversal.TraversalConfig` resolves its ``prep``
    field here, so ``None`` reads ``REPRO_PREP`` in this one place.
    """
    if mode is None:
        return default_prep()
    if mode not in PREP_MODES:
        raise ValueError(f"unknown prep mode {mode!r}; prep must be one of {PREP_MODES}")
    return mode


@dataclass
class PrepPlan:
    """A prepared enumeration input: reduced graph, id maps, orderings.

    ``left_map`` / ``right_map`` are ``new id → original id`` lists and
    are ``None`` when the reduction removed nothing (``graph`` is then the
    input object itself).  ``left_order`` / ``right_order`` are the
    :func:`~repro.prep.ordering.degeneracy_order` of the *reduced* graph
    under ``core+order``, ``None`` (canonical order) otherwise.
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
) -> PrepPlan:
    """Build the :class:`PrepPlan` for one enumeration run.

    ``mode=None`` resolves via :func:`default_prep` (the ``REPRO_PREP``
    environment variable, falling back to ``core``).  The reduction uses
    the asymmetric threshold bounds of :mod:`repro.prep.reduce` — sound
    for ``theta_left != theta_right`` — and the ordering (``core+order``
    only) is :func:`~repro.prep.ordering.degeneracy_order` of the reduced
    graph.
    """
    mode = resolve_prep(mode)
    epoch = graph.epoch  # before the reduction copies the masks
    if mode == "off":
        return PrepPlan(mode=mode, graph=graph, epoch=epoch)
    reduction = reduce_for_thresholds(graph, k, theta_left, theta_right)
    left_order = right_order = None
    if mode == "core+order":
        left_order, right_order = degeneracy_order(reduction.graph)
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
        epoch=epoch,
    )


def reprepare(
    graph,
    k: int,
    mode: Optional[str] = None,
    theta_left: int = 0,
    theta_right: int = 0,
) -> PrepPlan:
    """The plan for ``graph`` after it absorbed a mutation batch.

    Takes no superseded plan and no edge batches: a rebuild never needs
    them.  The plan is :func:`prepare` on the mutated graph, so it is
    content-identical to a from-scratch plan and cursor fingerprints agree
    whichever entry point built it.  This is the hot-graph registry's
    rebuild-after-update entry point, kept apart from :func:`prepare` so
    that the two kinds of build are counted and timed separately.
    """
    return prepare(graph, k, mode, theta_left, theta_right)
