"""Tests of the query service layer: registry, session table, front door.

The acceptance bar for the hot-graph registry: a second identical query
performs **zero** graph loads and zero prep builds (asserted through the
hit counters) and is measurably faster than the cold run.  Around that:
session TTL/capacity eviction with cursor survival, budget clamps,
result-cache semantics (never cache time-limit truncation), and the
service cursor surviving a simulated daemon restart.
"""

from __future__ import annotations

import time

import pytest

from repro import paper_example_graph, write_edge_list
from repro.core import ITraversal
from repro.obs import reset_registry
from repro.service import (
    Budgets,
    HotGraphRegistry,
    QueryError,
    QueryService,
    ServiceCursorError,
    SessionExpired,
    SessionTable,
)


#: Marks a query field that a cursor edit deletes.
_DROP = object()


def paper_query(**overrides):
    graph = paper_example_graph()
    query = {
        "graph": {
            "n_left": graph.n_left,
            "n_right": graph.n_right,
            "edges": [list(edge) for edge in sorted(graph.edges())],
        },
        "k": 1,
    }
    query.update(overrides)
    return query


def expected_solutions(k=1, **kwargs):
    solutions = ITraversal(paper_example_graph(), k, **kwargs).enumerate()
    return [[sorted(s.left), sorted(s.right)] for s in solutions]


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class TestHotGraphRegistry:
    def test_second_identical_query_skips_load_and_prep(self):
        service = QueryService()
        service.enumerate(paper_query())
        counters = service.registry.counters()
        assert counters == {
            **counters,
            "graph_loads": 1,
            "graph_hits": 0,
            "plans_built": 1,
            "plan_hits": 0,
        }
        # Pagination (not the result cache) so the registry is exercised.
        service.open_session(paper_query(), page_size=2)
        counters = service.registry.counters()
        assert counters["graph_loads"] == 1
        assert counters["graph_hits"] == 1
        assert counters["plans_built"] == 1
        assert counters["plan_hits"] == 1

    def test_hot_query_is_faster_than_cold(self, tmp_path):
        # A generated 1000x1000 file with one planted 6x6 block: the cold
        # path parses 6000+ edges and peels them down to the block at
        # θ = 5, while the hot path only enumerates that small block.
        # The smallest cold/hot ratio over 20 runs on a 2-vCPU box was
        # about 200x, so one sample decides.
        from repro.graph.generators import planted_biplex_graph_with_blocks

        graph, _ = planted_biplex_graph_with_blocks(
            1000, 1000, 6, 6, 1, background_edges=6000, num_blocks=1, seed=3
        )
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        service = QueryService(result_cache_capacity=0)  # isolate the registry
        query = {"graph": {"path": str(path)}, "k": 1, "theta_left": 5, "theta_right": 5}
        start = time.perf_counter()
        cold = service.enumerate(query)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        hot = service.enumerate(query)
        hot_seconds = time.perf_counter() - start
        assert hot["solutions"] == cold["solutions"] != []
        assert service.registry.counters()["plan_hits"] == 1
        assert hot_seconds < cold_seconds

    def test_lru_eviction_drops_graph_and_its_plans(self):
        registry = HotGraphRegistry(capacity=1)
        graph = paper_example_graph()
        registry.get_graph(("dataset", "a"), lambda: graph)
        registry.get_plan(("dataset", "a"), graph, 1, "core", 0, 0)
        registry.get_graph(("dataset", "b"), lambda: graph)
        counters = registry.counters()
        assert counters["graph_evictions"] == 1
        assert counters["plan_evictions"] == 1
        assert counters["graphs_resident"] == 1
        assert registry.peek_graph(("dataset", "a")) is None

    def test_distinct_parameterizations_build_distinct_plans(self):
        service = QueryService()
        service.open_session(paper_query(), page_size=1)
        service.open_session(paper_query(k=2), page_size=1)
        counters = service.registry.counters()
        assert counters["graph_loads"] == 1
        assert counters["plans_built"] == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            HotGraphRegistry(capacity=0)

    def test_racing_load_keeps_the_updated_resident_graph(self):
        """A load that loses the race must not revert an applied update."""
        registry = HotGraphRegistry()
        key = ("dataset", "paper")
        racer = paper_example_graph()
        absent = next(
            (v, u)
            for v in racer.left_vertices()
            for u in racer.right_vertices()
            if not racer.has_edge(v, u)
        )

        def slow_loader():
            # While this load runs, another request loads the same key and
            # updates it.
            registry.get_graph(key, lambda: racer)
            registry.apply_update(key, inserts=[absent])
            return paper_example_graph()

        graph = registry.get_graph(key, slow_loader)
        assert graph is racer
        assert registry.peek_graph(key) is racer
        assert graph.epoch == 1 and graph.has_edge(*absent)
        assert registry.counters()["updates_applied"] == 1


    def test_update_counts_each_stale_plan_once(self):
        """A plan an earlier update made stale is not counted again."""
        service = QueryService(result_cache_capacity=0)
        plain = paper_query()
        thresholded = paper_query(theta_left=2, theta_right=2)
        service.enumerate(plain)
        service.enumerate(thresholded)
        graph = paper_example_graph()
        absent = [
            [v, u]
            for v in graph.left_vertices()
            for u in graph.right_vertices()
            if not graph.has_edge(v, u)
        ]
        first = service.update({"graph": plain["graph"], "insert": [absent[0]]})
        assert first["plans_invalidated"] == 2
        service.enumerate(plain)  # rebuilds the θ = 0 plan only
        second = service.update({"graph": plain["graph"], "insert": [absent[1]]})
        # The θ = 2 plan went stale at the first update.
        assert second["plans_invalidated"] == 1
        assert service.registry.counters()["plan_invalidations"] == 3


# --------------------------------------------------------------------- #
# Session table
# --------------------------------------------------------------------- #
class TestSessionTable:
    def test_ttl_eviction_with_injectable_clock(self):
        clock = {"now": 0.0}
        table = SessionTable(ttl_seconds=10.0, clock=lambda: clock["now"])
        service = QueryService(sessions=table)
        page = service.open_session(paper_query(), page_size=2)
        session_id = page["session_id"]
        clock["now"] = 5.0
        table.get(session_id)  # touch refreshes the TTL
        clock["now"] = 14.0
        table.get(session_id)  # still alive: last touch was at 5.0
        clock["now"] = 30.0
        with pytest.raises(SessionExpired):
            table.get(session_id)
        assert table.counters()["sessions_expired"] == 1

    def test_capacity_evicts_least_recently_used(self):
        table = SessionTable(capacity=2)
        service = QueryService(sessions=table)
        first = service.open_session(paper_query(), page_size=1)
        second = service.open_session(paper_query(k=2), page_size=1)
        table.get(first["session_id"])  # make `second` the LRU
        service.open_session(paper_query(k=3), page_size=1)
        table.get(first["session_id"])
        with pytest.raises(SessionExpired):
            table.get(second["session_id"])
        assert table.counters()["sessions_evicted"] == 1

    def test_evicted_session_resumes_from_cursor(self):
        clock = {"now": 0.0}
        table = SessionTable(ttl_seconds=1.0, clock=lambda: clock["now"])
        service = QueryService(sessions=table)
        expected = expected_solutions()
        page = service.open_session(paper_query(), page_size=4)
        clock["now"] = 100.0  # the session is long gone...
        follow_up = service.next_page(
            session_id=page["session_id"], cursor=page["cursor"], page_size=1000
        )
        # ...but the cursor carried everything needed to continue exactly.
        assert page["solutions"] + follow_up["solutions"] == expected
        assert follow_up["exhausted"]

    def test_live_gauge_follows_every_shrink(self, monkeypatch):
        """``service_sessions_live`` equals the table size after a session
        is paged to exhaustion, cancelled, evicted for capacity or closed
        with the table."""
        monkeypatch.delenv("REPRO_OBS", raising=False)
        reset_registry()
        try:
            table = SessionTable(capacity=2)
            service = QueryService(sessions=table)

            def live():
                gauge = service.metrics()["gauges"]["service_sessions_live"]
                assert gauge == table.counters()["sessions_live"]
                return gauge

            page = service.open_session(paper_query(), page_size=1)
            assert live() == 1
            last = service.next_page(
                session_id=page["session_id"], cursor=page["cursor"], page_size=1000
            )
            assert last["exhausted"] and live() == 0
            page = service.open_session(paper_query(), page_size=1)
            assert service.cancel(page["session_id"]) and live() == 0
            for k in (1, 2, 3):
                service.open_session(paper_query(k=k), page_size=1)
            assert table.counters()["sessions_evicted"] == 1 and live() == 2
            table.close_all()
            assert live() == 0
        finally:
            reset_registry()

    def test_cancel_is_idempotent_and_cursor_survives(self):
        service = QueryService()
        expected = expected_solutions()
        page = service.open_session(paper_query(), page_size=3)
        assert service.cancel(page["session_id"]) is True
        assert service.cancel(page["session_id"]) is False
        resumed = service.next_page(cursor=page["cursor"], page_size=1000)
        assert page["solutions"] + resumed["solutions"] == expected


# --------------------------------------------------------------------- #
# Query front door
# --------------------------------------------------------------------- #
class TestQueryService:
    def test_enumerate_matches_library(self):
        service = QueryService()
        response = service.enumerate(paper_query())
        assert response["solutions"] == expected_solutions()
        assert response["num_solutions"] == 13
        status = response["status"]
        assert status["truncated"] is False
        # The mode follows the environment default (REPRO_PREP in CI legs).
        from repro.prep import resolve_prep

        assert status["prep"]["mode"] == resolve_prep(None)
        assert "num_shards" in status

    def test_result_cache_hit_and_bypass_of_time_truncation(self):
        service = QueryService()
        first = service.enumerate(paper_query())
        second = service.enumerate(paper_query())
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["solutions"] == first["solutions"]
        # max_results truncation is deterministic and cached fine.
        capped = service.enumerate(paper_query(max_results=3))
        assert capped["cached"] is False
        assert service.enumerate(paper_query(max_results=3))["cached"] is True
        # A time-limited run that actually truncates is never cached.
        squeezed = service.enumerate(paper_query(time_limit=1e-9))
        if squeezed["status"]["hit_time_limit"]:
            again = service.enumerate(paper_query(time_limit=1e-9))
            assert again["cached"] is False

    def test_cached_result_is_isolated_from_mutation(self):
        service = QueryService()
        first = service.enumerate(paper_query())
        first["solutions"].clear()
        assert service.enumerate(paper_query())["solutions"] == expected_solutions()

    def test_pagination_matches_enumerate(self):
        service = QueryService()
        expected = expected_solutions()
        page = service.open_session(paper_query(), page_size=5)
        collected = list(page["solutions"])
        while not page["exhausted"]:
            page = service.next_page(session_id=page["session_id"], page_size=5)
            collected.extend(page["solutions"])
        assert collected == expected
        assert page["session_id"] is None  # exhausted sessions are freed

    def test_service_cursor_survives_restart(self):
        """A fresh service (fresh registry, empty tables) resumes the token."""
        old = QueryService()
        expected = expected_solutions()
        page = old.open_session(paper_query(), page_size=6)
        fresh = QueryService()
        resumed = fresh.next_page(cursor=page["cursor"], page_size=1000)
        assert page["solutions"] + resumed["solutions"] == expected
        assert fresh.stats()["cursor_resumes"] == 1

    def test_budget_clamps_ride_existing_limits(self):
        service = QueryService(budgets=Budgets(max_results_cap=4, max_page_size=2))
        response = service.enumerate(paper_query())
        assert response["num_solutions"] == 4
        assert response["status"]["hit_result_limit"] is True
        # Requests under the cap keep their own limit; over it are clamped.
        assert service.enumerate(paper_query(max_results=2))["num_solutions"] == 2
        assert service.enumerate(paper_query(max_results=100))["num_solutions"] == 4
        page = service.open_session(paper_query(), page_size=50)
        assert page["page_size"] == 2  # clamped to max_page_size

    def test_dataset_and_jobs_queries(self):
        service = QueryService()
        query = {"graph": {"dataset": "divorce"}, "k": 1, "theta_left": 5, "theta_right": 5}
        serial = service.enumerate(query)
        parallel = service.enumerate({**query, "jobs": 2})
        assert serial["num_solutions"] > 0
        # The parallel engine emits the canonically *sorted* stream; serial
        # emits DFS pre-order — same solution set, different sequence.
        assert sorted(parallel["solutions"]) == sorted(serial["solutions"])
        assert parallel["status"]["num_shards"] > 0

    @pytest.mark.parametrize(
        "broken, match",
        [
            ({"k": 1}, "graph"),
            ({"graph": {"dataset": "divorce"}}, "k must be"),
            ({"graph": {"dataset": "nope"}, "k": 1}, "unknown dataset"),
            ({"graph": {"dataset": "divorce"}, "k": 1, "variant": "x"}, "variant"),
            ({"graph": {"dataset": "divorce"}, "k": 1, "backend": "x"}, "backend"),
            ({"graph": {"dataset": "divorce"}, "k": 1, "prep": "x"}, "prep mode"),
            ({"graph": {"dataset": "divorce"}, "k": 1, "max_results": 0}, "max_results"),
            ({"graph": {"dataset": "divorce"}, "k": 1, "bogus": 1}, "unknown query fields"),
            ({"graph": {"path": "x", "dataset": "y"}, "k": 1}, "exactly one"),
            ({"graph": {"dataset": "divorce"}, "k": 1, "jobs": "2"}, "jobs must be"),
            ({"graph": {"dataset": "divorce"}, "k": 1, "variant": ["x"]}, "variant must be"),
            ({"graph": {"dataset": "divorce"}, "k": 1, "time_limit": float("nan")}, "time_limit must be"),
            ({"graph": {"dataset": "divorce"}, "k": 1, "time_limit": float("inf")}, "time_limit must be"),
            (
                {"graph": {"dataset": "divorce"}, "k": 1, "order_strategy": "degree"},
                "unknown query fields: .*order_strategy",
            ),
        ],
    )
    def test_query_validation(self, broken, match):
        with pytest.raises(QueryError, match=match):
            QueryService().normalize(broken)

    @pytest.mark.parametrize(
        "text, match",
        [
            (None, "No such file"),
            ("% 2 2\n0 x\n", "invalid literal"),
            ("% 2 2\n0 5\n", "outside the declared size header"),
        ],
        ids=["missing", "malformed", "out-of-range"],
    )
    def test_unreadable_graph_file_is_a_query_error(self, tmp_path, text, match):
        """A file the edge-list reader rejects is the client's error, like a
        missing one: a QueryError (400 over HTTP), not an internal one."""
        path = tmp_path / "graph.txt"
        if text is not None:
            path.write_text(text)
        with pytest.raises(QueryError, match=f"cannot read graph file: .*{match}"):
            QueryService().enumerate({"graph": {"path": str(path)}, "k": 1})

    @pytest.mark.parametrize(
        "query",
        [
            paper_query(),
            paper_query(k=2, variant="no-exclusion", max_results=3),
            paper_query(mode="top-k", top=2, prep="core+order"),
            paper_query(mode="maximum", jobs=2, time_limit=5),
            {"graph": {"dataset": "divorce"}, "k": 1, "theta_left": 5, "theta_right": 5},
            {"graph": {"path": "graph.txt"}, "k": 1, "jobs": 0},
        ],
    )
    def test_normalize_is_idempotent(self, query):
        service = QueryService(budgets=Budgets(max_results_cap=10, time_limit_cap=1.0))
        normalized = service.normalize(query)
        assert service.normalize(normalized) == normalized

    @staticmethod
    def diagonal_query(edges):
        return {"graph": {"n_left": 3, "n_right": 3, "edges": edges}, "k": 1}

    def test_inline_edge_spellings_normalize_identically(self):
        service = QueryService()
        plain = service.normalize(self.diagonal_query([[0, 0], [1, 1], [2, 2]]))
        repeated = service.normalize(self.diagonal_query([[2, 2], [0, 0], [1, 1], [0, 0]]))
        assert repeated == plain

    def test_update_reaches_every_spelling_of_an_inline_graph(self):
        service = QueryService()
        plain = self.diagonal_query([[0, 0], [1, 1], [2, 2]])
        repeated = self.diagonal_query([[2, 2], [0, 0], [1, 1], [0, 0]])
        before = service.enumerate(plain)
        off_diagonal = [[v, u] for v in range(3) for u in range(3) if v != u]
        service.update({"graph": repeated["graph"], "insert": off_diagonal})
        after = service.enumerate(plain)
        assert after["solutions"] == [[[0, 1, 2], [0, 1, 2]]] != before["solutions"]
        assert service.registry.counters()["graph_loads"] == 1

    @pytest.mark.parametrize("field", ("n_left", "n_right"))
    def test_boolean_side_size_rejected(self, field):
        """``true`` equals ``1`` in Python, but as a side size it would hash
        to a second hot graph that updates sent with ``1`` never reach."""
        service = QueryService()
        graph = {"n_left": 1, "n_right": 1, "edges": [[0, 0]], field: True}
        with pytest.raises(QueryError, match=field):
            service.normalize({"graph": graph, "k": 1})
        with pytest.raises(QueryError, match=field):
            service.update({"graph": graph, "insert": [[0, 0]]})

    def test_malformed_service_cursor_rejected(self):
        service = QueryService()
        with pytest.raises(ServiceCursorError):
            service.next_page(cursor="garbage")
        with pytest.raises(QueryError):
            service.next_page()  # neither id nor cursor

    def test_stats_document_merges_all_layers(self):
        service = QueryService()
        service.enumerate(paper_query())
        stats = service.stats()
        for key in (
            "queries",
            "pages_served",
            "result_cache_hits",
            "cursor_resumes",
            "graph_loads",
            "plan_hits",
            "sessions_live",
        ):
            assert key in stats


# --------------------------------------------------------------------- #
# Metric series: /v1/metrics renders the counters behind /v1/stats
# --------------------------------------------------------------------- #
#: Each service series ``/v1/metrics`` renders, by the ``stats()`` value it
#: must equal.
SERVICE_SERIES = {
    "registry_cache_total{cache=graph,outcome=hit}": lambda s: s["graph_hits"],
    "registry_cache_total{cache=graph,outcome=miss}": lambda s: s["graph_loads"],
    "registry_cache_total{cache=plan,outcome=hit}": lambda s: s["plan_hits"],
    "registry_cache_total{cache=plan,outcome=miss}": lambda s: s["plans_built"],
    "registry_plan_builds_total{path=repair}": lambda s: s["plans_repaired"],
    "registry_plan_builds_total{path=scratch}": (
        lambda s: s["plans_built"] - s["plans_repaired"]
    ),
    "registry_updates_total": lambda s: s["updates_applied"],
    "registry_invalidation_total{cache=plan}": lambda s: s["plan_invalidations"],
    "service_result_cache_total{outcome=hit}": lambda s: s["result_cache_hits"],
    "service_result_cache_total{outcome=miss}": lambda s: s["result_cache_misses"],
    "service_result_invalidation_total{cause=update}": (
        lambda s: s["results_invalidated"]
    ),
    "service_sessions_total{event=created}": lambda s: s["sessions_created"],
    "service_sessions_total{event=evicted}": lambda s: s["sessions_evicted"],
    "service_sessions_total{event=expired}": lambda s: s["sessions_expired"],
}


def _service_part(snapshot, section):
    """One section's service series of a ``/v1/metrics`` document."""
    prefixes = ("registry_", "service_result_", "service_sessions_")
    return {
        key: value
        for key, value in snapshot[section].items()
        if key.startswith(prefixes)
    }


def _drive_every_service_event(check):
    """One service through every counted event; ``check(service)`` between steps.

    Cold load, graph and plan hits, a result-cache miss then a hit, an
    update that invalidates plans and cached results followed by repaired
    plans, and sessions that are created, evicted for capacity, cancelled,
    expired under the injected clock and paged to exhaustion.
    """
    clock = {"now": 0.0}
    table = SessionTable(ttl_seconds=10.0, capacity=2, clock=lambda: clock["now"])
    service = QueryService(sessions=table)
    query = paper_query()
    check(service)
    service.enumerate(query)  # cold: graph load, plan build, result miss
    service.enumerate(query)  # graph hit, result hit
    service.enumerate(paper_query(k=2))  # graph hit, second plan, result miss
    check(service)
    outcome = service.update(
        {"graph": query["graph"], "delete": [query["graph"]["edges"][0]]}
    )
    assert outcome["plans_invalidated"] == 2 and outcome["results_invalidated"] == 2
    service.enumerate(query)  # plan repaired at the new epoch, result miss
    check(service)
    service.open_session(query, page_size=1)  # plan hit
    second = service.open_session(paper_query(k=2), page_size=1)  # plan repaired
    service.open_session(query, page_size=1)  # evicts the first for capacity
    check(service)
    assert service.cancel(second["session_id"])
    check(service)
    clock["now"] = 100.0
    last = service.open_session(query, page_size=1)  # the third expires first
    check(service)
    page = service.next_page(
        session_id=last["session_id"], cursor=last["cursor"], page_size=1000
    )
    assert page["exhausted"]
    check(service)
    return service


class TestServiceSeries:
    def test_rendered_series_equal_stats(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        reset_registry()
        lives = []

        def check(service):
            stats = service.stats()
            snapshot = service.metrics()
            counters = _service_part(snapshot, "counters")
            gauges = _service_part(snapshot, "gauges")
            expected = {
                key: value(stats)
                for key, value in SERVICE_SERIES.items()
                if value(stats)
            }
            assert counters == expected
            if stats["sessions_created"]:
                assert gauges == {"service_sessions_live": stats["sessions_live"]}
                lives.append(stats["sessions_live"])
            else:
                assert gauges == {}

        try:
            stats = _drive_every_service_event(check).stats()
        finally:
            reset_registry()
        assert all(value(stats) for value in SERVICE_SERIES.values())
        assert stats["graph_loads"] == 1
        assert stats["result_cache_hits"] == 1 and stats["result_cache_misses"] == 3
        assert stats["plans_repaired"] == 2 and stats["plan_invalidations"] == 2
        assert stats["sessions_created"] == 4
        assert stats["sessions_evicted"] == stats["sessions_expired"] == 1
        assert lives == [2, 1, 1, 0]

    def test_cacheless_service_renders_no_cache_outcome(self, monkeypatch):
        """Capacity 0 (the CLI's service) has no cache to hit or miss."""
        monkeypatch.delenv("REPRO_OBS", raising=False)
        reset_registry()
        try:
            service = QueryService(result_cache_capacity=0)
            service.enumerate(paper_query())
            service.enumerate(paper_query())
            counters = service.metrics()["counters"]
        finally:
            reset_registry()
        assert service.stats()["result_cache_misses"] == 0
        assert not any(key.startswith("service_result_cache_total") for key in counters)
        assert counters["registry_cache_total{cache=plan,outcome=hit}"] == 1

    def test_disabled_layer_renders_none_but_stats_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        reset_registry()
        try:
            enabled = _drive_every_service_event(lambda service: None).stats()
            monkeypatch.setenv("REPRO_OBS", "0")
            reset_registry()
            rendered = []
            disabled = _drive_every_service_event(
                lambda service: rendered.append(service.metrics())
            ).stats()
        finally:
            monkeypatch.delenv("REPRO_OBS", raising=False)
            reset_registry()
        assert disabled == enabled
        assert all(
            snapshot == {"counters": {}, "gauges": {}, "histograms": {}}
            for snapshot in rendered
        )


class TestServiceCursorValidation:
    """A resumed cursor's embedded query is normalized like a fresh one."""

    QUERY = {"graph": {"dataset": "divorce"}, "k": 1, "theta_left": 2, "theta_right": 2}

    @staticmethod
    def _edit(cursor, **changes):
        from repro.core.session import decode_token, encode_token

        data = decode_token(cursor)
        for name, value in changes.items():
            if value is _DROP:
                del data["query"][name]
            else:
                data["query"][name] = value
        return encode_token(data)

    def test_edited_cursor_is_clamped_to_the_cap(self):
        service = QueryService(budgets=Budgets(max_results_cap=10, time_limit_cap=1.0))
        page = service.open_session(self.QUERY, page_size=4)
        served = len(page["solutions"])
        cursor = self._edit(page["cursor"], max_results=10**9, time_limit=None)
        while True:
            page = service.next_page(cursor=cursor, page_size=4)
            served += len(page["solutions"])
            if page["exhausted"]:
                break
            cursor = page["cursor"]
        assert served == 10
        assert page["status"]["hit_result_limit"] is True

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"k": _DROP}, "k must be"),
            ({"jobs": "2"}, "jobs must be"),
            ({"backend": "bitset"}, "backend"),
            # A cursor minted while queries carried an order strategy.
            ({"order_strategy": None}, r"unknown query fields: \['order_strategy'\]"),
            ({"time_limit": float("nan")}, "time_limit must be"),
        ],
        ids=["no-k", "string-jobs", "legacy-backend", "legacy-order-strategy", "nan-time-limit"],
    )
    def test_malformed_embedded_query_answers_400(self, changes, match):
        service = QueryService()
        page = service.open_session(self.QUERY, page_size=4)
        with pytest.raises(ServiceCursorError, match=match):
            service.next_page(cursor=self._edit(page["cursor"], **changes))


def _tamper(token: dict, variant: str) -> None:
    """Apply one edit to a decoded cursor token with a frontier."""
    frontier = token["frontier"]
    top = frontier["frames"][-1]
    if variant == "negative-left-id":
        top[0] = "-1"
    elif variant == "left-id-60":
        top[0] = format(int(top[0], 16) | 1 << 60, "x")
    elif variant == "left-id-1e8":
        top[0] = "1" + "0" * 10**6
    elif variant == "string-left-id":
        top[0] = "1_0"  # int("1_0", 16) == 16 would pass a bare int parse
    elif variant == "string-depth":
        top[3] = "deep"
    elif variant == "one-element-frame":
        del top[1:]
    elif variant == "one-element-visited-entry":
        del frontier["visited"][0][1:]
    elif variant == "unknown-stats-field":
        frontier["stats"]["num_bogus"] = 1
    elif variant == "negative-counter":
        frontier["stats"]["num_reported"] = -1000
    elif variant == "fractional-counter":
        frontier["stats"]["num_links"] = 0.5
    else:
        raise AssertionError(variant)


class TestCursorDecompressionCap:
    """A cursor inflates to at most ``MAX_DOCUMENT_BYTES``.

    The bomb is 200 MB of zeros, 0.2 MB compressed: refused with the limit
    named, and without holding as much as the cap in memory on the way.
    """

    @pytest.fixture(scope="class")
    def bomb(self):
        import base64
        import zlib

        packer = zlib.compressobj(9)
        zeros = bytes(2**20)
        body = b"".join(packer.compress(zeros) for _ in range(200)) + packer.flush()
        return base64.urlsafe_b64encode(body).decode("ascii")

    @staticmethod
    def _refused_peak(call, error):
        import tracemalloc

        from repro.core.session import MAX_DOCUMENT_BYTES

        tracemalloc.start()
        try:
            with pytest.raises(error, match=str(MAX_DOCUMENT_BYTES)):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_library_refuses_the_bomb(self, bomb):
        from repro.core import CursorError, EnumerationSession
        from repro.core.session import MAX_DOCUMENT_BYTES

        peak = self._refused_peak(
            lambda: EnumerationSession.resume(paper_example_graph(), 1, bomb), CursorError
        )
        assert peak < MAX_DOCUMENT_BYTES

    def test_service_refuses_the_bomb(self, bomb):
        from repro.core.session import MAX_DOCUMENT_BYTES

        service = QueryService()
        peak = self._refused_peak(
            lambda: service.next_page(cursor=bomb), ServiceCursorError
        )
        assert peak < MAX_DOCUMENT_BYTES


class TestTamperedEngineFrontier:
    """The engine token inside a cursor is client-held and unsigned.

    Each edit below of a valid divorce θ=4 cursor (page size 5; the
    reduced graph is 9×29) must be refused with a cursor error — 400 over
    HTTP — before any mask is built, and must leave no session behind.
    ``jobs`` is pinned to 1: only serial sessions carry a frontier.
    """

    QUERY = {
        "graph": {"dataset": "divorce"},
        "k": 1,
        "theta_left": 4,
        "theta_right": 4,
        "jobs": 1,
    }
    VARIANTS = (
        "negative-left-id",
        "left-id-60",
        "left-id-1e8",
        "string-left-id",
        "string-depth",
        "one-element-frame",
        "one-element-visited-entry",
        "unknown-stats-field",
        "negative-counter",
        "fractional-counter",
    )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_library_resume_raises_cursor_error(self, variant):
        from repro.analysis.datasets import load_dataset
        from repro.core import CursorError, EnumerationSession
        from repro.core.session import decode_token, encode_token
        from repro.core.traversal import TraversalConfig

        graph = load_dataset("divorce")
        config = TraversalConfig(theta_left=4, theta_right=4, jobs=1, prep="core")
        session = EnumerationSession(graph, 1, config)
        session.next_batch(5)
        token = decode_token(session.cursor())
        _tamper(token, variant)
        with pytest.raises(CursorError):
            EnumerationSession.resume(graph, 1, encode_token(token), config)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_service_answers_cursor_error_and_keeps_no_session(self, variant):
        from repro.core.session import decode_token, encode_token

        service = QueryService()
        page = service.open_session(self.QUERY, page_size=5)
        token = decode_token(page["cursor"])
        _tamper(token, variant)
        live = service.stats()["sessions_live"]
        with pytest.raises(ServiceCursorError, match="cursor"):
            service.next_page(cursor=encode_token(token))
        assert service.stats()["sessions_live"] == live
