"""Layer tracing from outside the program: wrappers around public seams.

The traced run replaces module attributes and public methods that one
layer calls in another (``repro.core.traversal.extend_to_maximal``,
``HotGraphRegistry.get_plan``, ...) with wrappers that count calls and
time them.  Nothing under ``src/`` changes; the wrappers exist only while
:meth:`Tracer.restore` has not run.

Every wrapped call is a span.  Spans nest through one stack, so each span
knows how much of its time its wrapped children took, and a layer's self
time is its total minus that child time.  Generators are timed only
inside their own ``next()`` calls: the time a consumer spends between two
items belongs to the consumer, not to the generator.

The tracer is single-threaded by design: the traced service run replays
its script in-process on one thread.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional


class Layer:
    """Accumulated figures of one span name."""

    __slots__ = ("calls", "items", "total", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Span stack plus the per-name accumulators and installed patches."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: Dict[str, Layer] = {}
        self.samples: Dict[str, List[float]] = {}
        # Open spans, innermost last: [name, child seconds so far].
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    def layer(self, name: str) -> Layer:
        acc = self.layers.get(name)
        if acc is None:
            acc = self.layers[name] = Layer()
        return acc

    def record(self, name: str, value: float) -> None:
        """Keep one observed value (sizes, ratios) for later percentiles."""
        self.samples.setdefault(name, []).append(value)

    def _enter(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return self.clock()

    def _exit(self, start: float) -> None:
        elapsed = self.clock() - start
        name, child = self._stack.pop()
        acc = self.layer(name)
        acc.total += elapsed
        acc.child += child
        if self._stack:
            self._stack[-1][1] += elapsed

    # ------------------------------------------------------------------ #
    def wrap_function(
        self, name: str, fn: Callable, on_result: Optional[Callable] = None
    ) -> Callable:
        """``fn`` with every call counted and timed as a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.layer(name).calls += 1
            start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(start)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator_function(self, name: str, fn: Callable) -> Callable:
        """``fn`` (returning an iterator) timed inside each ``next()`` only.

        A call counts once; each produced item counts in
        :attr:`Layer.items`.  Closing the wrapper closes the wrapped
        iterator, so generators that finalize state in ``finally`` (the
        engine stamps its stats there) still do.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.layer(name).calls += 1
            return self._timed_iteration(name, fn(*args, **kwargs))

        return traced

    def _timed_iteration(self, name: str, iterator):
        acc = self.layer(name)
        try:
            while True:
                start = self._enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._exit(start)
                acc.items += 1
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------ #
    def patch(self, owner, attr: str, name: str, kind: str = "function",
              on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with its traced twin until :meth:`restore`.

        ``kind`` is ``"function"``, ``"generator"`` or ``"classmethod"``.
        ``owner`` is a module or a class; class attributes are read from
        the class ``__dict__`` so descriptors come back exactly on restore.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "classmethod":
            traced = classmethod(self.wrap_function(name, original.__func__, on_result))
        elif kind == "generator":
            traced = self.wrap_generator_function(name, original)
        elif kind == "function":
            traced = self.wrap_function(name, original, on_result)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ---------------------------------------------------------------------- #
# The seams of this repository's layers
# ---------------------------------------------------------------------- #

def install(tracer: Tracer) -> None:
    """Wrap the public seams each layer of ``repro`` is reached through.

    Module attributes are patched where the *calling* module looks them
    up (``from x import f`` binds ``f`` in the caller), so a function
    reached from two layers is patched in both namespaces under one span
    name.
    """
    mod = importlib.import_module
    traversal = mod("repro.core.traversal")
    enum_almost_sat = mod("repro.core.enum_almost_sat")
    session = mod("repro.core.session")
    registry = mod("repro.service.registry")
    query = mod("repro.service.query")
    bipartite = mod("repro.graph.bipartite")

    def prep_result(plan) -> None:
        # Share of the input's edges the reduction removed.
        kept = plan.graph.num_edges
        tracer.record("prep.removed_edges", plan.removed_edges)
        tracer.record("prep.input_edges", plan.removed_edges + kept)

    def cursor_result(token) -> None:
        tracer.record("session.cursor_bytes", len(token))

    # graph: io, datasets, backend conversion, Γ(v, R)
    tracer.patch(mod("repro.graph.io"), "read_edge_list", "graph.load")
    tracer.patch(query, "read_edge_list", "graph.load")
    tracer.patch(mod("repro.analysis.datasets"), "load_dataset", "graph.load")
    tracer.patch(traversal, "as_backend", "graph.convert")
    tracer.patch(registry, "as_backend", "graph.convert")
    tracer.patch(bipartite.BipartiteGraph, "gamma_left", "graph.gamma_left")
    # prep
    tracer.patch(traversal, "prepare", "prep.prepare", on_result=prep_result)
    tracer.patch(registry, "prepare", "prep.prepare", on_result=prep_result)
    tracer.patch(registry, "reprepare", "prep.reprepare", on_result=prep_result)
    # engine children
    tracer.patch(traversal, "enum_local_solutions", "enum_almost_sat", kind="generator")
    tracer.patch(traversal, "extend_to_maximal", "biplex.extend")
    tracer.patch(traversal, "can_add_right_masked", "biplex.can_add_right")
    tracer.patch(enum_almost_sat, "can_add_right_masked", "biplex.can_add_right")
    # session (the engine span lives on its two pull methods)
    cls = session.EnumerationSession
    tracer.patch(cls, "stream", "engine", kind="generator")
    tracer.patch(cls, "next_batch", "engine")
    tracer.patch(cls, "next_batch", "session.next_batch")
    tracer.patch(cls, "cursor", "session.cursor", on_result=cursor_result)
    tracer.patch(cls, "resume", "session.resume", kind="classmethod")
    # service
    tracer.patch(registry.HotGraphRegistry, "get_plan", "registry.get_plan")
    tracer.patch(registry.HotGraphRegistry, "apply_update", "registry.apply_update")
    tracer.patch(query.QueryService, "normalize", "service.normalize")


#: Engine counters: per-layer name → ``TraversalStats`` field (also the
#: key in every service status block).
ENGINE_COUNTERS = {
    "engine.links": "num_links",
    "engine.almost_sat_graphs": "num_almost_sat_graphs",
    "engine.local_solutions": "num_local_solutions",
    "engine.discovered": "num_solutions",
    "engine.reported": "num_reported",
    "engine.pruned_anchor": "num_pruned_anchor",
    "engine.pruned_exclusion": "num_pruned_exclusion",
    "engine.pruned_right_extensible": "num_pruned_right_extensible",
    "engine.pruned_subtree": "num_pruned_subtree",
    "engine.pruned_size_filter": "num_pruned_size_filter",
    "objective.pruned_by_bound": "num_pruned_by_bound",
}


def layer_metrics(tracer: Tracer, counters: dict, overhead: float,
                  extra: Optional[dict] = None) -> dict:
    """Every per-layer metric from one traced pass.

    ``counters`` are the engine's ``TraversalStats`` fields summed over
    the pass's runs; ``extra`` supplies what only the service workload
    measures (registry counters, result-cache ratio, the ``http.*``
    figures).  A layer the workload never reaches reads 0.
    """
    import pbstats

    def calls(name: str) -> int:
        return tracer.layer(name).calls

    def seconds(name: str) -> float:
        return tracer.layer(name).total

    engine = {name: counters.get(field, 0) for name, field in ENGINE_COUNTERS.items()}
    samples = tracer.samples
    enum = tracer.layer("enum_almost_sat")
    cursor_bytes = samples.get("session.cursor_bytes")
    out = {
        "graph.load_s": seconds("graph.load"),
        "graph.convert_s": seconds("graph.convert"),
        "graph.convert_calls": calls("graph.convert"),
        "graph.gamma_left_calls": calls("graph.gamma_left"),
        "graph.gamma_left_s": seconds("graph.gamma_left"),
        "prep.prepare_calls": calls("prep.prepare"),
        "prep.prepare_s": seconds("prep.prepare"),
        "prep.reprepare_calls": calls("prep.reprepare"),
        "prep.reprepare_s": seconds("prep.reprepare"),
        "prep.removed_edge_frac": pbstats.ratio(
            sum(samples.get("prep.removed_edges", ())),
            sum(samples.get("prep.input_edges", ())),
        ),
        "engine.s": seconds("engine"),
        "engine.self_s": tracer.layer("engine").self_time,
        **engine,
        "engine.links_per_local": pbstats.ratio(
            engine["engine.links"], engine["engine.local_solutions"]
        ),
        "engine.reported_per_discovered": pbstats.ratio(
            engine["engine.reported"], engine["engine.discovered"]
        ),
        "enum_almost_sat.calls": enum.calls,
        "enum_almost_sat.s": enum.total,
        "enum_almost_sat.locals_per_call": pbstats.ratio(enum.items, enum.calls),
        "biplex.extend_calls": calls("biplex.extend"),
        "biplex.extend_s": seconds("biplex.extend"),
        "biplex.extend_per_reported": pbstats.ratio(
            calls("biplex.extend"), engine["engine.reported"]
        ),
        "biplex.can_add_right_calls": calls("biplex.can_add_right"),
        "biplex.can_add_right_s": seconds("biplex.can_add_right"),
        "session.next_batch_s": seconds("session.next_batch"),
        "session.cursor_s": seconds("session.cursor"),
        "session.cursor_bytes_p50": (
            pbstats.percentile(cursor_bytes, 50) if cursor_bytes else 0
        ),
        "session.resume_calls": calls("session.resume"),
        "session.resume_s": seconds("session.resume"),
        "registry.get_plan_s": seconds("registry.get_plan"),
        "registry.plan_hits": 0,
        "registry.plans_built": 0,
        "registry.plans_repaired": 0,
        "registry.apply_update_s": seconds("registry.apply_update"),
        "service.normalize_s": seconds("service.normalize"),
        "service.result_hit_ratio": 0.0,
        "http.self_ms_per_request": 0.0,
        "http.response_bytes_p50": 0,
        "trace.overhead_frac": overhead,
    }
    out.update(extra or {})
    return out
