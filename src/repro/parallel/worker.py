"""Worker-process entry point of the sharded parallel engine.

Kept in its own importable module so the ``spawn`` start method can pickle
the target by reference; under ``fork`` (the Linux default) the arguments
are inherited and never serialised.  The worker owns one
:class:`~repro.core.traversal.ReverseSearchEngine` for its whole lifetime,
but ``run_shard`` resets the visited map per shard on purpose: each
shard's traversal is a pure function of ``(root, anchor, exclusion)``, so
the merged work counters do not depend on how the dynamic scheduler
assigned shards to workers (cross-shard duplicates are removed by the
coordinator instead).  The per-shard stats are accumulated into one
running total that is shipped back exactly once, at exit.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import fields

from ..core.traversal import ReverseSearchEngine, TraversalStats

#: Solutions are streamed back in batches of this size: large enough to
#: amortise the queue/pickling round trip, small enough that the
#: coordinator's max_results cancellation stays responsive.
SOLUTION_BATCH_SIZE = 64
#: Probes between two reads of the shared cancellation event.
CANCEL_POLL_INTERVAL = 64
#: Probes between two reads of the shared incumbent bound.
BOUND_POLL_INTERVAL = 32


class _ThrottledCancel:
    """Poll a shared event only every :data:`CANCEL_POLL_INTERVAL` probes.

    The engine probes the cancellation hook on every time check (per
    reported solution and per Step-1 candidate); reading a
    ``multiprocessing.Event`` is a shared-semaphore access, cheap but not
    free, so the probe is decimated.
    """

    __slots__ = ("_event", "_tick")

    def __init__(self, event) -> None:
        self._event = event
        self._tick = 0

    def __call__(self) -> bool:
        self._tick += 1
        if self._tick % CANCEL_POLL_INTERVAL:
            return False
        return self._event.is_set()


class _SharedBound:
    """Cross-process incumbent size bound (solver-mode gossip).

    The engine consults :meth:`read` on its hot pruning paths, so the
    shared ``multiprocessing.Value`` is only touched every
    :data:`BOUND_POLL_INTERVAL` probes and the last-seen bound is served in
    between — the bound is monotone, so a stale read only means pruning a
    little less, never wrongly.  :meth:`publish` max-merges immediately: a
    worker's improved incumbent is exactly what lets the *other* workers
    prune.
    """

    __slots__ = ("_value", "_tick", "_cached")

    def __init__(self, value) -> None:
        self._value = value
        self._tick = 0
        self._cached = value.value

    def read(self) -> int:
        self._tick += 1
        if self._tick % BOUND_POLL_INTERVAL == 0:
            self._cached = self._value.value
        return self._cached

    def publish(self, bound: int) -> None:
        if bound <= self._cached:
            return
        self._cached = bound
        with self._value.get_lock():
            raw = self._value.get_obj()
            if bound > raw.value:
                raw.value = bound


def fold_stats(totals: TraversalStats, part: TraversalStats, skip=()) -> None:
    """Fold ``part``'s counters into ``totals``, except the fields in ``skip``.

    The one merge rule of the parallel engine, for a worker's shards and
    for the coordinator's workers alike: ``best_size`` takes the maximum,
    the ``hit_*`` flags OR, and every other field sums.
    """
    for field in fields(TraversalStats):
        name = field.name
        if name in skip:
            continue
        value = getattr(part, name)
        if name == "best_size":
            value = max(value, totals.best_size)
        elif isinstance(value, bool):
            value = value or getattr(totals, name)
        else:
            value += getattr(totals, name)
        setattr(totals, name, value)


def worker_main(
    worker_id: int,
    graph,
    k: int,
    config,
    root,
    shards,
    task_queue,
    result_queue,
    cancel_event,
    deadline,
    bound_value=None,
    trace_id=None,
) -> None:
    """Pull shard indices until the sentinel, streaming solutions back.

    ``config`` arrives pre-sanitised by the coordinator (``jobs=1``, no
    ``max_results`` — the global cap is enforced cooperatively, a per-shard
    cap could starve the merged unique count).  ``deadline`` is an absolute
    ``time.time()`` instant shared by every worker; each shard runs with
    whatever budget remains of it.  ``bound_value`` (solver modes only) is
    the shared incumbent-size cell of the gossip channel; the worker's
    objective state deliberately persists across its shards — unlike the
    visited map, an incumbent carried over can only tighten pruning, never
    change the answer.

    ``trace_id`` is the coordinator's request trace propagating through
    the shard-dispatch path: when set, the worker records one span per
    shard it ran and ships the serialized tree back in its ``"done"``
    message, where the coordinator grafts it under the request's active
    span (``Trace.attach``).  ``None`` (tracing off) records nothing.
    """
    totals = TraversalStats()
    shard_spans = [] if trace_id is not None else None
    try:
        engine = ReverseSearchEngine(graph, k, config)
        engine._cancel = _ThrottledCancel(cancel_event)
        if bound_value is not None:
            engine._bound_channel = _SharedBound(bound_value)
        while True:
            index = task_queue.get()
            if index is None:
                break
            if cancel_event.is_set():
                break
            if deadline is not None:
                remaining = deadline - time.time()
                if remaining <= 0:
                    totals.hit_time_limit = True
                    break
                engine.config.time_limit = remaining
            shard = shards[index]
            batch = []
            try:
                for solution in engine.run_shard(
                    root, (shard.side, shard.vertex), shard.exclusion
                ):
                    batch.append(solution)
                    if len(batch) >= SOLUTION_BATCH_SIZE:
                        result_queue.put(("solutions", batch))
                        batch = []
                    if cancel_event.is_set():
                        break
            finally:
                fold_stats(totals, engine.stats)
                totals.num_shards += 1
                if shard_spans is not None:
                    shard_spans.append(
                        {
                            "name": f"shard[{index}]",
                            "elapsed_ms": round(
                                engine.stats.elapsed_seconds * 1000.0, 3
                            ),
                            "anchor": [shard.side, shard.vertex],
                        }
                    )
                if batch:
                    result_queue.put(("solutions", batch))
    except (KeyboardInterrupt, EOFError, BrokenPipeError):  # pragma: no cover
        # Parent interrupted or tore the queues down mid-run; the "done"
        # message below is best-effort.
        pass
    except BaseException:
        try:
            result_queue.put(("error", worker_id, traceback.format_exc()))
        except Exception:  # pragma: no cover - queues already gone
            pass
        return
    worker_span = None
    if shard_spans is not None:
        worker_span = {
            "name": f"worker[{worker_id}]",
            "elapsed_ms": round(totals.elapsed_seconds * 1000.0, 3),
            "trace_id": trace_id,
            "shards": totals.num_shards,
            "children": shard_spans,
        }
    try:
        result_queue.put(("done", worker_id, totals, worker_span))
    except Exception:  # pragma: no cover - queues already gone
        pass
