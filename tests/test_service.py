"""Tests of the query service layer: registry, session table, front door.

The acceptance bar for the hot-graph registry: a second identical query
performs **zero** graph loads and zero prep builds (asserted through the
hit counters) and is measurably faster than the cold run.  Around that:
session TTL/capacity eviction with cursor survival, budget clamps,
result-cache semantics (never cache time-limit truncation), and the
service-cursor envelope surviving a simulated daemon restart.
"""

from __future__ import annotations

import time

import pytest

from repro import paper_example_graph, write_edge_list
from repro.core import ITraversal
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
        ],
    )
    def test_query_validation(self, broken, match):
        with pytest.raises(QueryError, match=match):
            QueryService().normalize(broken)

    @pytest.mark.parametrize(
        "query",
        [
            paper_query(),
            paper_query(k=2, variant="no-exclusion", max_results=3),
            paper_query(mode="top-k", top=2, prep="core+order", order_strategy="degree"),
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


class TestServiceCursorValidation:
    """A resumed cursor's embedded query is normalized like a fresh one."""

    QUERY = {"graph": {"dataset": "divorce"}, "k": 1, "theta_left": 2, "theta_right": 2}

    @staticmethod
    def _edit(cursor, **changes):
        from repro.service.query import _decode_service_cursor, _encode_service_cursor

        data = _decode_service_cursor(cursor)
        for name, value in changes.items():
            if value is _DROP:
                del data["query"][name]
            else:
                data["query"][name] = value
        return _encode_service_cursor(data)

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
        ],
        ids=["no-k", "string-jobs", "legacy-backend"],
    )
    def test_malformed_embedded_query_answers_400(self, changes, match):
        service = QueryService()
        page = service.open_session(self.QUERY, page_size=4)
        with pytest.raises(ServiceCursorError, match=match):
            service.next_page(cursor=self._edit(page["cursor"], **changes))
