"""The service's report schemas: run status blocks and metric series.

The service builds a status block for every query, so ``repro-mbp
enumerate --json``, the ``repro-mbp query`` family and the HTTP daemon
all report the same status document, and a consumer can switch between
them without reparsing: the full
:class:`~repro.core.traversal.TraversalStats` counters (including
``truncated`` and the parallel-only ``num_shards`` /
``num_duplicate_solutions`` / ``num_reexplorations``) plus the prep plan's
mode and reduction sizes (the mode alone names the candidate ordering).

:data:`SERVICE_COUNTERS` is the one place the service's metric series are
named.  A new service counter is its ``stats()`` key plus one row there.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict

from ..core.traversal import TraversalStats

#: Each service series of ``/v1/metrics`` (labels sorted, as the registry
#: renders them) and the :meth:`~repro.service.query.QueryService.stats`
#: key it renders; ``plans_scratch`` is ``plans_built - plans_repaired``.
SERVICE_COUNTERS = {
    "registry_cache_total{cache=graph,outcome=hit}": "graph_hits",
    "registry_cache_total{cache=graph,outcome=miss}": "graph_loads",
    "registry_cache_total{cache=plan,outcome=hit}": "plan_hits",
    "registry_cache_total{cache=plan,outcome=miss}": "plans_built",
    "registry_plan_builds_total{path=repair}": "plans_repaired",
    "registry_plan_builds_total{path=scratch}": "plans_scratch",
    "registry_updates_total": "updates_applied",
    "registry_invalidation_total{cache=plan}": "plan_invalidations",
    "service_result_cache_total{outcome=hit}": "result_cache_hits",
    "service_result_cache_total{outcome=miss}": "result_cache_misses",
    "service_result_invalidation_total{cause=update}": "results_invalidated",
    "service_sessions_total{event=created}": "sessions_created",
    "service_sessions_total{event=evicted}": "sessions_evicted",
    "service_sessions_total{event=expired}": "sessions_expired",
}


def service_series(stats: dict) -> Dict[str, Dict[str, int]]:
    """The series of one ``stats()`` document, in a registry snapshot's layout.

    A counter appears once it is non-zero, as a registry counter does
    after its first increment.  The ``service_sessions_live`` gauge is the
    session table's current size; it appears with the first session.
    """
    values = dict(stats, plans_scratch=stats["plans_built"] - stats["plans_repaired"])
    counters = {series: values[key] for series, key in SERVICE_COUNTERS.items() if values[key]}
    live = {"service_sessions_live": stats["sessions_live"]}
    return {"counters": counters, "gauges": live if stats["sessions_created"] else {}}


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
