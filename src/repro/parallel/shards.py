"""Shard-plan computation: one shard per root anchor, serial-faithful.

The plan replicates the serial engine's root-level ``_children`` pass
*without* running EnumAlmostSat: it only needs the anchor order and the
exclusion-prefix bookkeeping, both of which are pure functions of the root
solution and the configuration.  Every per-anchor decision that needs the
graph (the Section 5 Γ-pruning, the local-solution enumeration) happens
inside the worker that executes the shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.biplex import Biplex


@dataclass(frozen=True)
class Shard:
    """One unit of parallel work: a root anchor plus its exclusion prefix.

    Attributes
    ----------
    side:
        ``"L"`` or ``"R"`` — which side the anchor vertex lives on (right
        anchors only occur for bTraversal-style configurations).
    vertex:
        The Step-1 candidate vertex outside the root solution.
    exclusion:
        The exclusion mask the serial DFS would hand the children derived
        from this anchor: one bit per left anchor processed before it (0
        when the exclusion strategy is off).
    """

    side: str
    vertex: int
    exclusion: int


def shard_plan(engine, root: Biplex) -> List[Shard]:
    """The shards of ``engine``'s traversal forest below ``root``.

    Mirrors the serial root expansion exactly: same anchor order (the
    engine's ``_candidate_vertices`` — the prep plan's candidate ordering
    when one is set, otherwise left side ascending then, without
    left-anchoring, right side ascending), same early-out prunings with
    the root's empty exclusion set, and the same exclusion-prefix
    accumulation (*every* earlier left anchor joins the prefix, whether or
    not its almost-satisfying graph survived the Γ-pruning — serial
    appends pruned candidates to ``processed`` too).  Because the plan is
    built on the engine's (possibly prep-reduced) graph, shards cover the
    reduced vertex space and an ordering-aware prep also evens out the
    root selection: low-degeneracy anchors lead, dense hubs arrive last
    with the largest exclusion prefixes.
    """
    config = engine.config
    # Section 5 solution pruning at the root (serial `_children` early outs,
    # evaluated with the root's empty exclusion set).
    if (
        config.theta_right
        and config.right_shrinking
        and root.right_mask.bit_count() < config.theta_right
    ):
        return []
    if (
        config.theta_left
        and config.exclusion
        and engine.graph.n_left < config.theta_left
    ):
        return []
    shards: List[Shard] = []
    processed = 0
    for side, vertex in engine._candidate_vertices(root):
        shards.append(Shard(side, vertex, processed))
        if config.exclusion:
            processed |= 1 << vertex
    return shards
