"""The transport-agnostic query front door.

:class:`QueryService` is what both front ends (the HTTP daemon and the
``repro-mbp query`` CLI family) call into.  It owns the composition:
normalize the query document, resolve the graph and prep plan through the
:class:`~repro.service.registry.HotGraphRegistry` (the hot path skips
load + reduction entirely), build the
:class:`~repro.core.traversal.TraversalConfig` with budget-clamped
limits, and run either a one-shot enumeration (with result caching) or a
paginated one through the :class:`~repro.service.sessions.SessionTable`.

Query documents
---------------
A query is a JSON-shaped dict::

    {"graph": {"path": "g.txt"} | {"dataset": "divorce"}
              | {"n_left": 3, "n_right": 3, "edges": [[0, 0], ...]},
     "k": 1,
     "variant": "full",              # ITraversal.VARIANTS
     "theta_left": 0, "theta_right": 0,
     "prep": null,                   # null → REPRO_PREP default
     "order_strategy": null,         # null → REPRO_ORDER default
     "jobs": null,                   # null → REPRO_JOBS default
     "max_results": null, "time_limit": null,
     "mode": "enumerate",            # | "maximum" | "top-k" (with "top": N)
     "top": null}

Normalization resolves every ``null`` against the environment defaults,
so the normalized document is self-contained: it is the result-cache key,
and it is embedded in service cursors.  A cursor is client-held and
unsigned, so resuming runs its embedded query through normalization again:
the current budgets clamp it and a malformed one answers 400.

Service cursors
---------------
Page responses carry a ``repro-service-cursor/1`` token: the normalized
query plus the engine-level ``repro-cursor/1`` token.  That makes the
cursor the durable pagination handle — it survives session-table
eviction *and* daemon restarts, because resuming needs nothing but the
token (the graph is re-resolved from the embedded query, hot from the
registry when possible).

Result caching
--------------
Identical one-shot queries hit an LRU of completed results.  Runs that
stopped on ``time_limit`` are never cached (their solution set depends on
wall-clock luck); ``max_results``-truncated runs are deterministic for a
fixed configuration and cache fine.
"""

from __future__ import annotations

import base64
import copy
import json
import os
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.itraversal import ITraversal, itraversal_config
from ..core.objective import resolve_objective
from ..core.session import CursorError, EnumerationSession, StaleCursorError
from ..graph.bipartite import BipartiteGraph
from ..graph.io import read_edge_list
from ..obs import SlowQueryLog, get_registry, new_trace_id, span, trace
from ..parallel import resolve_jobs
from ..prep import resolve_order_strategy, resolve_prep
from .registry import HotGraphRegistry, inline_graph_key
from .sessions import SessionExpired, SessionTable
from .status import status_block

#: Schema tag of the self-contained pagination token.
SERVICE_CURSOR_SCHEMA = "repro-service-cursor/1"


class QueryError(ValueError):
    """The query document is malformed or references unknown resources."""


class ServiceCursorError(QueryError):
    """A service cursor token is malformed or unresumable."""


class ServiceStaleCursorError(ServiceCursorError):
    """The cursor predates a mutation of its graph.

    Raised when a resume's engine-level epoch check fires
    (:class:`repro.core.session.StaleCursorError`); the HTTP layer maps it
    to 409 with ``"code": "stale_cursor"`` rather than a generic 400 —
    the token is well-formed, the *world* moved on.
    """


@dataclass(frozen=True)
class Budgets:
    """Server-side caps that requests cannot exceed.

    ``None`` caps are unlimited.  A request's own ``max_results`` /
    ``time_limit`` ride through unchanged when under the cap — the
    clamped value is what lands in the engine config, and the existing
    cooperative-limit machinery does the actual stopping.
    """

    max_results_cap: Optional[int] = None
    time_limit_cap: Optional[float] = None
    max_page_size: int = 1000
    default_page_size: int = 100

    def clamp_max_results(self, requested: Optional[int]) -> Optional[int]:
        if requested is None:
            return self.max_results_cap
        if self.max_results_cap is None:
            return requested
        return min(requested, self.max_results_cap)

    def clamp_time_limit(self, requested: Optional[float]) -> Optional[float]:
        if requested is None:
            return self.time_limit_cap
        if self.time_limit_cap is None:
            return requested
        return min(requested, self.time_limit_cap)

    def clamp_page_size(self, requested: Optional[int]) -> int:
        if requested is None:
            return min(self.default_page_size, self.max_page_size)
        if not isinstance(requested, int) or isinstance(requested, bool) or requested < 1:
            raise QueryError("page_size must be a positive integer")
        return min(requested, self.max_page_size)


def _encode_service_cursor(payload: dict) -> str:
    raw = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return base64.urlsafe_b64encode(zlib.compress(raw, 6)).decode("ascii")


def _decode_service_cursor(token: str) -> dict:
    try:
        raw = zlib.decompress(base64.urlsafe_b64decode(token.encode("ascii")))
        data = json.loads(raw)
    except Exception as error:
        raise ServiceCursorError(f"malformed service cursor: {error}") from None
    if not isinstance(data, dict) or data.get("schema") != SERVICE_CURSOR_SCHEMA:
        raise ServiceCursorError(
            f"unsupported service cursor schema; expected {SERVICE_CURSOR_SCHEMA}"
        )
    return data


def _serialize_solution(solution) -> List[List[int]]:
    return [sorted(solution.left), sorted(solution.right)]


def _split_trace_flag(query) -> Tuple[object, bool]:
    """Strip the per-request ``trace`` opt-in from a query document.

    The flag never reaches :meth:`QueryService.normalize`: it is not part
    of the canonical form (two queries differing only in tracing are the
    same enumeration — same cache key, same cursor payload).
    """
    if isinstance(query, dict) and "trace" in query:
        want = bool(query["trace"])
        return {k: v for k, v in query.items() if k != "trace"}, want
    return query, False


class QueryService:
    """Registry + session table + budgets behind one query API."""

    def __init__(
        self,
        registry: Optional[HotGraphRegistry] = None,
        sessions: Optional[SessionTable] = None,
        budgets: Optional[Budgets] = None,
        result_cache_capacity: int = 32,
        slow_log: Optional[SlowQueryLog] = None,
    ) -> None:
        self.registry = registry if registry is not None else HotGraphRegistry()
        self.sessions = sessions if sessions is not None else SessionTable()
        self.budgets = budgets if budgets is not None else Budgets()
        self.slow_log = slow_log if slow_log is not None else SlowQueryLog.from_env()
        self._result_cache_capacity = max(0, result_cache_capacity)
        # cache key -> {"graph_key": registry key, "response": dict}; the
        # graph key lets an update purge exactly this graph's entries.
        self._results: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.RLock()
        self.queries = 0
        self.pages_served = 0
        self.result_hits = 0
        self.cursor_resumes = 0
        self.updates = 0
        self.results_invalidated = 0

    # ------------------------------------------------------------------ #
    # Request observability
    # ------------------------------------------------------------------ #
    def _observed(
        self, route: str, want_trace: bool, runner: Callable[[], dict]
    ) -> dict:
        """Run one request under the observability envelope.

        Mints the ``trace_id``, activates the request trace when asked
        (and the layer is enabled), records the route/outcome counter and
        latency histogram, and feeds the slow-query log.  The ``trace_id``
        and optional ``trace`` block are attached *after* ``runner``
        returns — in particular after result caching, so a cached response
        never embeds a stale trace.
        """
        metrics = get_registry()
        tracing = want_trace and metrics.enabled
        trace_id = new_trace_id()
        started = time.perf_counter()
        outcome = "error"
        active = None
        try:
            with trace(f"query.{route}", trace_id=trace_id, enabled=tracing) as active:
                response = runner()
            outcome = "ok"
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            if metrics.enabled:
                metrics.inc("service_requests_total", route=route, outcome=outcome)
                metrics.observe("service_request_ms", elapsed_ms, route=route)
            self.slow_log.record(route, elapsed_ms, trace_id)
        response["trace_id"] = trace_id
        if active is not None:
            response["trace"] = active.to_dict()
        return response

    # ------------------------------------------------------------------ #
    # Query normalization
    # ------------------------------------------------------------------ #
    def normalize(self, query: dict) -> dict:
        """Validate a query document and resolve every default.

        The result is canonical: two requests meaning the same enumeration
        normalize identically (it is the result-cache key and the payload
        embedded in service cursors).
        """
        if not isinstance(query, dict):
            raise QueryError("query must be a JSON object")
        unknown = set(query) - {
            "graph",
            "k",
            "variant",
            "theta_left",
            "theta_right",
            "prep",
            "order_strategy",
            "jobs",
            "max_results",
            "time_limit",
            "mode",
            "top",
        }
        if unknown:
            raise QueryError(f"unknown query fields: {sorted(unknown)}")
        graph_spec = self._normalize_graph_spec(query.get("graph"))
        k = query.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise QueryError("k must be a positive integer")
        for name in ("variant", "prep", "order_strategy", "mode"):
            if query.get(name) is not None and not isinstance(query[name], str):
                raise QueryError(f"{name} must be a string or null")
        jobs = query.get("jobs")
        if jobs is not None and (not isinstance(jobs, int) or isinstance(jobs, bool)):
            raise QueryError("jobs must be a non-negative integer or null")
        variant = query.get("variant", "full")
        if variant not in ITraversal.VARIANTS:
            raise QueryError(
                f"unknown variant {variant!r}; expected one of {sorted(ITraversal.VARIANTS)}"
            )
        theta_left = self._int_field(query, "theta_left", 0)
        theta_right = self._int_field(query, "theta_right", 0)
        try:
            prep = resolve_prep(query.get("prep"))
            order_strategy = (
                resolve_order_strategy(query.get("order_strategy"))
                if prep == "core+order"
                else None
            )
            jobs = resolve_jobs(jobs)
            mode, top = resolve_objective(query.get("mode"), query.get("top"))
        except ValueError as error:
            raise QueryError(str(error)) from None
        max_results = query.get("max_results")
        if max_results is not None and (
            not isinstance(max_results, int) or isinstance(max_results, bool) or max_results < 1
        ):
            raise QueryError("max_results must be a positive integer or null")
        time_limit = query.get("time_limit")
        if time_limit is not None and (
            not isinstance(time_limit, (int, float)) or isinstance(time_limit, bool) or time_limit <= 0
        ):
            raise QueryError("time_limit must be a positive number or null")
        return {
            "graph": graph_spec,
            "k": k,
            "variant": variant,
            "theta_left": theta_left,
            "theta_right": theta_right,
            "prep": prep,
            "order_strategy": order_strategy,
            "jobs": jobs,
            "max_results": self.budgets.clamp_max_results(max_results),
            "time_limit": self.budgets.clamp_time_limit(time_limit),
            # The objective is part of the canonical form on purpose: it is
            # the result-cache key, so a maximum answer can never be served
            # for an enumerate query (or vice versa).
            "mode": mode,
            "top": top,
        }

    @staticmethod
    def _int_field(query: dict, name: str, default: int) -> int:
        value = query.get(name, default)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise QueryError(f"{name} must be a non-negative integer")
        return value

    def _normalize_graph_spec(self, spec) -> dict:
        if not isinstance(spec, dict):
            raise QueryError(
                'query needs a "graph" object: {"path": ...}, {"dataset": ...} '
                'or {"n_left", "n_right", "edges"}'
            )
        kinds = [kind for kind in ("path", "dataset", "edges") if kind in spec]
        if len(kinds) != 1:
            raise QueryError(
                'graph spec must have exactly one of "path", "dataset", "edges"'
            )
        kind = kinds[0]
        if kind == "path":
            path = spec["path"]
            if not isinstance(path, str) or not path:
                raise QueryError("graph path must be a non-empty string")
            return {"path": os.path.abspath(path)}
        if kind == "dataset":
            from ..analysis.datasets import ALL_DATASETS

            name = spec["dataset"]
            if name not in ALL_DATASETS:
                raise QueryError(
                    f"unknown dataset {name!r}; expected one of {list(ALL_DATASETS)}"
                )
            return {"dataset": name}
        n_left = spec.get("n_left")
        n_right = spec.get("n_right")
        edges = spec.get("edges")
        if not isinstance(n_left, int) or not isinstance(n_right, int) or n_left < 0 or n_right < 0:
            raise QueryError("inline graph needs non-negative integer n_left / n_right")
        if not isinstance(edges, list):
            raise QueryError("inline graph edges must be a list of [left, right] pairs")
        normalized_edges = set()
        for edge in edges:
            if (
                not isinstance(edge, (list, tuple))
                or len(edge) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in edge)
            ):
                raise QueryError("inline graph edges must be [left, right] integer pairs")
            normalized_edges.add((edge[0], edge[1]))
        # Sorted and deduplicated: every spelling of one edge set must name
        # one hot graph, or an update sent with one spelling would miss
        # queries sent with another.
        return {
            "n_left": n_left,
            "n_right": n_right,
            "edges": [list(edge) for edge in sorted(normalized_edges)],
        }

    # ------------------------------------------------------------------ #
    # Graph + plan resolution (the registry hot path)
    # ------------------------------------------------------------------ #
    def resolve_graph(self, graph_spec: dict) -> Tuple[Tuple[str, str], object]:
        """The (registry key, loaded graph) for a normalized graph spec."""
        if "path" in graph_spec:
            path = graph_spec["path"]
            key = ("path", path)

            def loader():
                try:
                    return read_edge_list(path)
                except OSError as error:
                    raise QueryError(f"cannot read graph file: {error}") from None

        elif "dataset" in graph_spec:
            from ..analysis.datasets import load_dataset

            name = graph_spec["dataset"]
            key = ("dataset", name)

            def loader():
                return load_dataset(name)

        else:
            n_left = graph_spec["n_left"]
            n_right = graph_spec["n_right"]
            edges = [tuple(edge) for edge in graph_spec["edges"]]
            key = inline_graph_key(n_left, n_right, edges)

            def loader():
                try:
                    return BipartiteGraph(n_left, n_right, edges=edges)
                except (ValueError, IndexError) as error:
                    raise QueryError(f"invalid inline graph: {error}") from None

        return key, self.registry.get_graph(key, loader)

    def _plan_for(self, normalized: dict, resolved=None):
        key, graph = (
            resolved if resolved is not None else self.resolve_graph(normalized["graph"])
        )
        return self.registry.get_plan(
            key,
            graph,
            normalized["k"],
            normalized["prep"],
            normalized["theta_left"],
            normalized["theta_right"],
            order_strategy=normalized["order_strategy"],
        )

    def _config_for(self, normalized: dict):
        flags = ITraversal.VARIANTS[normalized["variant"]]
        return itraversal_config(
            right_shrinking=flags["right_shrinking"],
            exclusion=flags["exclusion"],
            theta_left=normalized["theta_left"],
            theta_right=normalized["theta_right"],
            max_results=normalized["max_results"],
            time_limit=normalized["time_limit"],
            jobs=normalized["jobs"],
            prep=normalized["prep"],
            objective=normalized["mode"],
            top=normalized["top"],
        )

    def _open(self, normalized: dict, resolved=None) -> EnumerationSession:
        plan = self._plan_for(normalized, resolved=resolved)
        config = self._config_for(normalized)
        return EnumerationSession(None, normalized["k"], config, prep_plan=plan)

    # ------------------------------------------------------------------ #
    # One-shot enumeration (result-cached)
    # ------------------------------------------------------------------ #
    def enumerate(self, query: dict) -> dict:
        """Run a query to completion (under its budgets); cache the result."""
        query, want_trace = _split_trace_flag(query)
        return self._observed("enumerate", want_trace, lambda: self._enumerate(query))

    def _enumerate(self, query: dict) -> dict:
        metrics = get_registry()
        with span("parse"):
            normalized = self.normalize(query)
        # The graph resolves *before* the cache lookup: its mutation epoch
        # is part of the cache key, so a result computed before an update
        # can never answer a query made after it.
        graph_key, graph = self.resolve_graph(normalized["graph"])
        epoch = graph.epoch
        cache_key = (
            json.dumps(normalized, separators=(",", ":"), sort_keys=True)
            + f"|epoch={epoch}"
        )
        with self._lock:
            self.queries += 1
            cached = self._results.get(cache_key)
            if cached is not None:
                self._results.move_to_end(cache_key)
                self.result_hits += 1
                response = copy.deepcopy(cached["response"])
                response["cached"] = True
        if cached is not None:
            if metrics.enabled:
                metrics.inc("service_result_cache_total", outcome="hit")
            return response
        if metrics.enabled:
            metrics.inc("service_result_cache_total", outcome="miss")
        with span("plan"):
            session = self._open(normalized, resolved=(graph_key, graph))
        try:
            with span("traverse"):
                raw = list(session.stream())
        except StaleCursorError as error:
            # An update landed mid-run on the graph this run traverses.
            raise ServiceStaleCursorError(str(error)) from None
        finally:
            session.close()
        with span("serialize"):
            solutions = [_serialize_solution(s) for s in raw]
        response = {
            "solutions": solutions,
            "num_solutions": len(solutions),
            "status": status_block(
                session.stats, session.prep, mode=normalized["mode"]
            ),
            "cached": False,
        }
        # Time-limit truncation is non-deterministic — never serve it to a
        # later identical query as if it were the answer.
        if self._result_cache_capacity > 0 and not session.stats.hit_time_limit:
            with self._lock:
                self._results[cache_key] = {
                    "graph_key": graph_key,
                    "response": copy.deepcopy(response),
                }
                self._results.move_to_end(cache_key)
                while len(self._results) > self._result_cache_capacity:
                    self._results.popitem(last=False)
        return response

    # ------------------------------------------------------------------ #
    # Graph mutation (``POST /v1/update`` / ``repro-mbp query update``)
    # ------------------------------------------------------------------ #
    def update(self, document: dict) -> dict:
        """Apply an edge batch to a hot graph, invalidating stale caches.

        ``document`` is ``{"graph": <spec>, "insert": [[l, r], ...],
        "delete": [[l, r], ...]}`` — the same graph specs queries use.
        The batch bumps the graph's epoch, so stale plans and cached
        results stop matching; cursors issued before the update resume
        with a ``stale_cursor`` error.
        """
        document, want_trace = _split_trace_flag(document)
        return self._observed("update", want_trace, lambda: self._update(document))

    def _update(self, document: dict) -> dict:
        if not isinstance(document, dict):
            raise QueryError("update must be a JSON object")
        unknown = set(document) - {"graph", "insert", "delete"}
        if unknown:
            raise QueryError(f"unknown update fields: {sorted(unknown)}")
        with span("parse"):
            graph_spec = self._normalize_graph_spec(document.get("graph"))
            inserts = self._edge_batch(document.get("insert"), "insert")
            deletes = self._edge_batch(document.get("delete"), "delete")
        if not inserts and not deletes:
            raise QueryError("update needs a non-empty insert or delete list")
        key, graph = self.resolve_graph(graph_spec)
        # Validate the whole batch against the graph's dimensions before
        # applying anything: apply_batch raising mid-way would leave the
        # earlier edges in.
        for label, batch in (("insert", inserts), ("delete", deletes)):
            for left, right in batch:
                if not (0 <= left < graph.n_left and 0 <= right < graph.n_right):
                    raise QueryError(
                        f"{label} edge [{left}, {right}] is out of range for a "
                        f"{graph.n_left}x{graph.n_right} graph"
                    )
        with span("apply"):
            outcome = self.registry.apply_update(key, inserts, deletes)
        with self._lock:
            self.updates += 1
            stale = [
                cache_key
                for cache_key, entry in self._results.items()
                if entry["graph_key"] == key
            ]
            for cache_key in stale:
                del self._results[cache_key]
            self.results_invalidated += len(stale)
        metrics = get_registry()
        if metrics.enabled and stale:
            metrics.inc(
                "service_result_invalidation_total", len(stale), cause="update"
            )
        outcome["results_invalidated"] = len(stale)
        return outcome

    @staticmethod
    def _edge_batch(value, name: str) -> List[Tuple[int, int]]:
        if value is None:
            return []
        if not isinstance(value, list):
            raise QueryError(f'"{name}" must be a list of [left, right] pairs')
        batch: List[Tuple[int, int]] = []
        for edge in value:
            if (
                not isinstance(edge, (list, tuple))
                or len(edge) != 2
                or not all(
                    isinstance(v, int) and not isinstance(v, bool) for v in edge
                )
                or edge[0] < 0
                or edge[1] < 0
            ):
                raise QueryError(
                    f'"{name}" entries must be [left, right] pairs of '
                    "non-negative integers"
                )
            batch.append((edge[0], edge[1]))
        return batch

    # ------------------------------------------------------------------ #
    # Paginated enumeration (sessions + service cursors)
    # ------------------------------------------------------------------ #
    def open_session(self, query: dict, page_size: Optional[int] = None) -> dict:
        """Start a paginated query; returns the first page."""
        query, want_trace = _split_trace_flag(query)
        return self._observed(
            "open_session", want_trace, lambda: self._open_session(query, page_size)
        )

    def _open_session(self, query: dict, page_size: Optional[int]) -> dict:
        with span("parse"):
            normalized = self.normalize(query)
            size = self.budgets.clamp_page_size(page_size)
        with self._lock:
            self.queries += 1
        with span("plan"):
            session = self._open(normalized)
        record = self.sessions.create(session, query=normalized)
        with record.lock:
            return self._page(record, size)

    def next_page(
        self,
        session_id: Optional[str] = None,
        cursor: Optional[str] = None,
        page_size: Optional[int] = None,
        want_trace: bool = False,
    ) -> dict:
        """Pull the next page, by live session id or by service cursor.

        The id is the fast path; the cursor is the durable one.  When both
        are given the id is tried first and the cursor is the fallback —
        which is exactly what a client that simply echoes the previous
        response's fields gets.
        """
        return self._observed(
            "next_page",
            want_trace,
            lambda: self._next_page(session_id, cursor, page_size),
        )

    def _next_page(
        self,
        session_id: Optional[str],
        cursor: Optional[str],
        page_size: Optional[int],
    ) -> dict:
        size = self.budgets.clamp_page_size(page_size)
        if session_id is not None:
            try:
                record = self.sessions.get(session_id)
            except SessionExpired:
                if cursor is None:
                    raise
            else:
                with record.lock:
                    return self._page(record, size)
        if cursor is None:
            raise QueryError("next_page needs a session_id or a cursor")
        with span("resume"):
            record = self._resume_record(cursor)
        with record.lock:
            return self._page(record, size)

    def cancel(self, session_id: str) -> bool:
        """Drop a live session (idempotent); its cursor can still resume."""
        return self.sessions.remove(session_id)

    def _resume_record(self, cursor: str):
        data = _decode_service_cursor(cursor)
        embedded = data.get("query")
        token = data.get("cursor")
        if not isinstance(embedded, dict) or not isinstance(token, str):
            raise ServiceCursorError("service cursor is missing its query or engine token")
        # The token is client-held and unsigned: its query gets the same
        # validation and budget clamps as a fresh one.
        try:
            normalized = self.normalize(embedded)
        except QueryError as error:
            raise ServiceCursorError(f"service cursor carries an invalid query: {error}") from None
        plan = self._plan_for(normalized)
        config = self._config_for(normalized)
        try:
            session = EnumerationSession.resume(
                None, normalized["k"], token, config, prep_plan=plan
            )
        except StaleCursorError as error:
            raise ServiceStaleCursorError(str(error)) from None
        except CursorError as error:
            raise ServiceCursorError(str(error)) from None
        with self._lock:
            self.cursor_resumes += 1
        return self.sessions.create(session, query=normalized)

    def _page(self, record, size: int) -> dict:
        session = record.session
        with span("traverse"):
            try:
                batch = session.next_batch(size)
            except StaleCursorError as error:
                # The graph was updated under this live session; it can
                # never continue on one epoch, so it is dropped.
                self.sessions.remove(record.session_id)
                raise ServiceStaleCursorError(str(error)) from None
        with span("serialize"):
            solutions = [_serialize_solution(s) for s in batch]
        with self._lock:
            self.pages_served += 1
        token = _encode_service_cursor(
            {
                "schema": SERVICE_CURSOR_SCHEMA,
                "query": record.query,
                "cursor": session.cursor(),
            }
        )
        exhausted = session.exhausted
        if exhausted:
            # A finished session holds no more answers — free it now; the
            # cursor in this response still answers any late paginate call
            # (with an empty page) after a resume.
            self.sessions.remove(record.session_id)
        return {
            "solutions": solutions,
            "page_size": len(solutions),
            "exhausted": exhausted,
            "session_id": None if exhausted else record.session_id,
            "cursor": token,
            "status": status_block(
                session.stats,
                session.prep,
                mode=record.query["mode"],
            ),
        }

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """One merged counter document (the ``/v1/stats`` body)."""
        with self._lock:
            service = {
                "queries": self.queries,
                "pages_served": self.pages_served,
                "result_cache_hits": self.result_hits,
                "result_cache_resident": len(self._results),
                "cursor_resumes": self.cursor_resumes,
                "updates": self.updates,
                "results_invalidated": self.results_invalidated,
            }
        service.update(self.registry.counters())
        service.update(self.sessions.counters())
        return service

    def close(self) -> None:
        self.sessions.close_all()
