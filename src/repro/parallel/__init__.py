"""Sharded parallel enumeration of maximal k-biplexes.

The reverse-search traversals decompose the solution space into subtrees
rooted at the children of the designated initial solution ``H0`` — one
bundle of subtrees per Step-1 *anchor* (a candidate vertex outside ``H0``).
That decomposition is exactly what makes the enumeration scale out:

Shard-by-anchor decomposition
-----------------------------
A *shard* is one anchor together with its exclusion prefix: the mask of
the left anchors the root expansion processes before it (Section 3.5 of
the paper; :func:`repro.parallel.shards.shard_plan` replicates the serial
root pass, including the Section 5 large-MBP pruning).  Workers explore
their shards with these prefixes **inherited** down the whole subtree
(``ReverseSearchEngine.run_shard`` turns ``_inherit_exclusions`` on for
each shard it runs — unlike serial runs, which apply exclusion per
expansion only), so shard ``i`` prunes every solution
containing an earlier shard's anchor: the paper's own visit-once device
doubles as the partitioning function and makes the shards *nearly
disjoint* — on dense ER the union of shard traversals can even undercut
the serial link count.  Inherited sets over-prune (the PR 5 serial
completeness bug), which the engine's re-exploration rule repairs: the
worker's visited map stores the exclusion mask each solution was explored
with, and a link whose intersection strictly shrinks it re-explores that
subtree without re-reporting.  bTraversal (no exclusion) shards the same
way but its shards overlap heavily; the engine stays correct (the
coordinator deduplicates) yet the duplicated traversal caps the speedup —
as it also does on left-heavy sparse graphs (many anchors, weak
right-shrinking), where the inherited sets cascade and a parallel run can
be far slower than serial while still exact.  Dense ER — the paper's
scalability workload — is the profitable regime.

Completeness does not rest on disjointness: each worker enumerates every
solution reachable from its anchors' children under the repaired
discipline, the coordinator owns the root, and cross-shard rediscoveries
are merged away; the union over all shards is pinned against the serial
set (itself pinned against the brute-force oracle) by the differential
harness.

Execution model
---------------
The coordinator (:func:`repro.parallel.engine.run_parallel`) computes the
root and the shard plan, then fans the shards out over ``jobs`` worker
processes — at most one per shard and one per CPU core — through a task
queue (dynamic load balancing: workers pull the next shard when done).
Workers stream batches of solutions back through a result queue; the
coordinator deduplicates against everything already seen,
buffers, and finally yields in canonical sorted order (deterministic, and
equal to the serial output sorted by :meth:`Biplex.key`, which is what the
differential harness pins).  ``max_results`` and ``time_limit`` are
enforced cooperatively: the coordinator counts unique yields and watches
the wall-clock deadline, and cancels the remaining shards through a shared
event the workers poll; workers additionally bound each shard by the
remaining time budget.

Stats-merge contract
--------------------
The coordinator leaves one merged :class:`~repro.core.traversal.TraversalStats`
on the engine:

* ``num_reported`` — exact: the unique solutions actually yielded.
* ``num_solutions`` / ``num_links`` / ``num_almost_sat_graphs`` /
  ``num_local_solutions`` — summed over the workers.  They measure work
  *performed*; when shard subtrees overlap (always for bTraversal,
  occasionally for iTraversal) they exceed the serial counts, and because
  shards are assigned dynamically the sums may vary slightly run to run.
* ``elapsed_seconds`` — the coordinator's wall clock for the whole run.
* ``hit_result_limit`` / ``hit_time_limit`` — OR over every worker and the
  coordinator's own cap/deadline enforcement, so ``stats.truncated`` is
  true whenever any part of the run was cut short.
* ``num_shards`` — the size of the shard plan; ``num_duplicate_solutions``
  — cross-shard rediscoveries the coordinator merged away.
* every other field (the prune-site counters, ``num_pruned_by_bound``,
  ``num_reexplorations``) sums, and ``best_size`` is the maximum.

One function, :func:`repro.parallel.worker.fold_stats`, applies this rule
twice: a worker folds its shards' stats, the coordinator its workers'.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable supplying the default worker count when
#: ``TraversalConfig.jobs`` is ``None`` (mirrors ``REPRO_PREP``).
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``jobs`` setting to a concrete worker count.

    ``None`` reads the ``REPRO_JOBS`` environment variable (default 1), so
    CI can drive the whole suite through the parallel engine with one knob;
    ``0`` means one worker per CPU core; negative values are rejected.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR)
        if raw is None:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV_VAR}={raw!r} is not a valid worker count; expected an integer"
            ) from None
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one worker per CPU core)")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


from .shards import Shard, shard_plan  # noqa: E402
from .engine import run_parallel  # noqa: E402

__all__ = [
    "JOBS_ENV_VAR",
    "Shard",
    "resolve_jobs",
    "run_parallel",
    "shard_plan",
]
