"""The shared run-status block: one schema for CLI ``--json`` and service responses.

The service builds it for every query, so ``repro-mbp enumerate
--json``, the ``repro-mbp query`` family and the HTTP daemon all report
the same status document, and a consumer can switch between them without
reparsing: the full :class:`~repro.core.traversal.TraversalStats`
counters (including ``truncated`` and the parallel-only ``num_shards`` /
``num_duplicate_solutions`` / ``num_reexplorations``) plus the prep plan's
mode and reduction sizes (the mode alone names the candidate ordering).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

from ..core.traversal import TraversalStats


def status_block(stats: TraversalStats, plan=None, **extra) -> dict:
    """Serialize one run's statistics (and optionally its prep plan).

    ``extra`` keys are merged on top — the service adds the resolved
    objective ``mode``.  The core counters always come straight from
    :class:`TraversalStats`, so the block is identical whether the run
    happened in-process, through a session or behind the daemon.
    """
    block = asdict(stats)
    block["truncated"] = stats.truncated
    if plan is not None:
        block["prep"] = {
            "mode": plan.mode,
            "removed_left": plan.removed_left,
            "removed_right": plan.removed_right,
            "removed_edges": plan.removed_edges,
        }
    block.update(extra)
    return block
