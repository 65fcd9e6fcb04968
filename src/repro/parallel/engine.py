"""Coordinator of the sharded parallel enumeration.

See the package docstring (:mod:`repro.parallel`) for the decomposition and
the stats-merge contract.  The coordinator is a generator: it computes the
root solution and the shard plan, spins up the worker pool, then merges the
result stream — deduplicating cross-shard rediscoveries, enforcing
``max_results`` / ``time_limit`` cooperatively, and leaving one merged
:class:`~repro.core.traversal.TraversalStats` on the engine no matter how
the iteration ends (exhaustion, caller ``break``, worker failure).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from collections import deque
from dataclasses import replace
from typing import Iterator, List, Optional

from ..core.biplex import Biplex
from ..core.traversal import TraversalStats
from ..obs import current_trace, get_registry
from .shards import shard_plan
from .worker import _SharedBound, fold_stats, worker_main

_POLL_SECONDS = 0.05
_JOIN_SECONDS = 2.0

#: The merged stats fields the coordinator owns instead of folding in the
#: workers' values: the unique solutions it yields, its own wall clock,
#: the shard plan size and the cross-shard duplicates it merges away.
_COORDINATOR_FIELDS = frozenset(
    ("num_reported", "elapsed_seconds", "num_shards", "num_duplicate_solutions")
)


def _mp_context():
    # fork where available: cheap, and the graph is not pickled.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _shutdown(workers, task_queue, result_queue, merged: TraversalStats) -> None:
    """Reap the pool: drain (merging late stats), join, terminate stragglers.

    Draining while joining matters: a worker blocked on a full result pipe
    cannot observe the cancellation event, so the coordinator keeps eating
    messages until every process has exited (or the grace period ends).
    """
    grace_end = time.time() + _JOIN_SECONDS
    while any(process.is_alive() for process in workers) and time.time() < grace_end:
        _drain(result_queue, merged)
        for process in workers:
            process.join(timeout=0.02)
    for process in workers:
        if process.is_alive():
            process.terminate()
    for process in workers:
        process.join(timeout=1.0)
    _drain(result_queue, merged)
    for q in (task_queue, result_queue):
        try:
            q.close()
            q.cancel_join_thread()
        except (OSError, ValueError):  # pragma: no cover - queue already gone
            pass


def _drain(result_queue, merged: TraversalStats) -> None:
    """Discard queued solution batches, but keep late worker stats."""
    while True:
        try:
            message = result_queue.get_nowait()
        except queue_module.Empty:
            return
        except (OSError, ValueError):  # pragma: no cover - queue already gone
            return
        if message[0] == "done":
            fold_stats(merged, message[2], skip=_COORDINATOR_FIELDS)


def run_parallel(engine) -> Iterator[Biplex]:
    """Run ``engine``'s traversal sharded over a process pool.

    Falls back to the serial DFS when the resolved worker count or the
    shard plan cannot keep two workers busy (the parallel machinery would
    be pure overhead and the serial run is, by construction, the one-worker
    special case).
    """
    from . import resolve_jobs

    config = engine.config
    jobs = resolve_jobs(config.jobs)
    start_wall = time.perf_counter()
    deadline = (
        time.time() + config.time_limit if config.time_limit is not None else None
    )
    root = engine._initial_solution()
    shards = shard_plan(engine, root)
    if jobs < 2 or len(shards) < 2:
        yield from engine._run_serial()
        return

    worker_config = replace(config, jobs=1, time_limit=None, max_results=None)
    ctx = _mp_context()
    cancel = ctx.Event()
    task_queue = ctx.Queue()
    result_queue = ctx.Queue()
    # Solver modes gossip the incumbent size through one shared cell, each
    # side through a worker._SharedBound: the coordinator (which observes
    # every unique arrival) publishes into it, the workers read it into
    # their pruning bound.
    solver = not engine.objective.trivial
    bound_value = ctx.Value("q", 0) if solver else None
    shared_bound = _SharedBound(bound_value) if solver else None

    # ``jobs`` comes from outside (a query, a flag): the pool never outgrows
    # the shards or the cores, so one request cannot fork without bound.
    worker_count = min(jobs, len(shards), os.cpu_count() or 1)
    # The request trace (if any) propagates into the workers by id only;
    # each worker ships its span subtree back in its "done" message and the
    # coordinator grafts it under the active span (Trace.attach).
    active_trace = current_trace()
    trace_id = active_trace.trace_id if active_trace is not None else None
    registry = get_registry()
    if registry.enabled:
        registry.inc("parallel_runs_total")
        registry.inc("parallel_shards_total", value=len(shards))
        registry.inc("parallel_workers_total", value=worker_count)
    for index in range(len(shards)):
        task_queue.put(index)
    for _ in range(worker_count):
        task_queue.put(None)
    workers = [
        ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                engine.graph,
                engine.k,
                worker_config,
                root,
                shards,
                task_queue,
                result_queue,
                cancel,
                deadline,
                bound_value,
                trace_id,
            ),
            daemon=True,
        )
        for worker_id in range(worker_count)
    ]

    # Fresh incumbent per run, exactly like _run_serial does for the serial
    # path — a previous run's bound must not pre-prune this one.
    engine.objective.reset()
    # The merged stats are the engine's from here on, so the root's own
    # size-filter and bound prunes below land in them.
    merged = engine.stats = TraversalStats(num_solutions=1, num_shards=len(shards))
    seen = {root}
    buffered: List[Biplex] = []
    stop = False
    worker_error: Optional[str] = None
    # Arrivals drive the cap; ``merged.num_reported`` counts solutions
    # actually delivered to the consumer (serial semantics — a caller that
    # abandons the generator early sees only what it consumed).
    arrived = 0

    def arrive(solution: Biplex) -> bool:
        """Take one unique solution in; True once it reaches the cap."""
        nonlocal arrived
        arrived += 1
        if solution.size > merged.best_size:
            merged.best_size = solution.size
        if solver and engine.objective.observe(solution):
            # Workers gossip through their own engines already; the
            # coordinator's merged view catches incumbents a worker found
            # right before exiting.
            shared_bound.publish(engine.objective.prune_below())
        buffered.append(solution)
        if config.max_results is not None and arrived >= config.max_results:
            merged.hit_result_limit = True
            return True
        return False

    try:
        for process in workers:
            process.start()
        # The designated root is the coordinator's own solution; filter,
        # count and deadline-check it exactly as the serial _report would.
        if deadline is not None and time.time() > deadline:
            merged.hit_time_limit = True
            stop = True
        elif engine._passes_size_filter(root):
            stop = arrive(root)
        pending = worker_count
        backlog: deque = deque()
        while pending and not stop:
            if backlog:
                message = backlog.popleft()
            else:
                try:
                    message = result_queue.get(timeout=_POLL_SECONDS)
                except queue_module.Empty:
                    if deadline is not None and time.time() > deadline:
                        merged.hit_time_limit = True
                        break
                    if all(not process.is_alive() for process in workers):
                        # Exit race: a worker can flush its last messages
                        # and exit between polls — pick them up before
                        # declaring it lost.
                        while True:
                            try:
                                backlog.append(result_queue.get_nowait())
                            except queue_module.Empty:
                                break
                        if not backlog:
                            raise RuntimeError(
                                "a parallel enumeration worker exited without "
                                "reporting; solutions may be missing"
                            )
                    continue
            kind = message[0]
            if kind == "solutions":
                for solution in message[1]:
                    if solution in seen:
                        merged.num_duplicate_solutions += 1
                        continue
                    seen.add(solution)
                    if arrive(solution):
                        stop = True
                        break
            elif kind == "done":
                fold_stats(merged, message[2], skip=_COORDINATOR_FIELDS)
                if active_trace is not None and len(message) > 3 and message[3]:
                    active_trace.attach(message[3])
                pending -= 1
            else:  # "error"
                worker_error = message[2]
                stop = True
        if worker_error is not None:
            raise RuntimeError(
                f"parallel enumeration worker failed:\n{worker_error}"
            )
    finally:
        cancel.set()
        _shutdown(workers, task_queue, result_queue, merged)
        merged.elapsed_seconds = time.perf_counter() - start_wall
        if registry.enabled and merged.num_duplicate_solutions:
            registry.inc(
                "parallel_duplicates_total",
                value=merged.num_duplicate_solutions,
            )
    buffered.sort(key=lambda solution: solution.key())
    for solution in buffered:
        # ``merged`` is the same object as ``engine.stats``, so late
        # increments stay visible even though the finally above already ran.
        merged.num_reported += 1
        yield solution
