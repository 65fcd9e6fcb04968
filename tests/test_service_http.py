"""End-to-end tests of the HTTP/JSON daemon and the ``query`` CLI family.

The daemon runs on an ephemeral port inside a background thread (its own
asyncio loop); the client side goes through the real ``repro-mbp query``
code paths — the same request helpers, pagination loop and output
formatting the CLI ships — so these tests double as the in-repo version
of the CI service smoke job.
"""

from __future__ import annotations

import asyncio
import csv
import io
import json
import threading

import pytest

from repro import paper_example_graph, write_edge_list
from repro.cli import main as cli_main
from repro.core import ITraversal
from repro.service.http import ServiceHTTPServer


@pytest.fixture(scope="module")
def daemon():
    """A live daemon on an ephemeral port; yields its base URL."""
    server = ServiceHTTPServer(port=0)
    started = threading.Event()
    loop_holder = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop_holder["loop"] = loop

        async def boot():
            await server.start()
            started.set()
            await server.serve_forever()

        try:
            loop.run_until_complete(boot())
        except asyncio.CancelledError:
            pass
        finally:
            loop.run_until_complete(server.aclose())
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=10), "daemon failed to start"
    yield f"http://127.0.0.1:{server.port}"
    loop = loop_holder["loop"]
    for task in asyncio.all_tasks(loop):
        loop.call_soon_threadsafe(task.cancel)
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "paper.txt"
    write_edge_list(paper_example_graph(), path)
    return str(path)


def http_json(server: str, method: str, path: str, payload=None):
    import urllib.error
    import urllib.request

    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        server + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def expected_solutions():
    solutions = ITraversal(paper_example_graph(), 1).enumerate()
    return [[sorted(s.left), sorted(s.right)] for s in solutions]


class TestDaemonProtocol:
    def test_healthz_and_stats(self, daemon):
        assert http_json(daemon, "GET", "/healthz") == (200, {"ok": True})
        status, stats = http_json(daemon, "GET", "/v1/stats")
        assert status == 200
        assert "graph_loads" in stats and "sessions_live" in stats

    def test_enumerate_route(self, daemon, graph_file):
        status, response = http_json(
            daemon, "POST", "/v1/enumerate",
            {"query": {"graph": {"path": graph_file}, "k": 1}},
        )
        assert status == 200
        assert response["solutions"] == expected_solutions()
        assert response["status"]["truncated"] is False

    def test_paginate_route_and_cursor_fallback(self, daemon, graph_file):
        query = {"graph": {"path": graph_file}, "k": 1}
        status, page = http_json(
            daemon, "POST", "/v1/enumerate",
            {"query": query, "paginate": True, "page_size": 4},
        )
        assert status == 200 and page["page_size"] == 4
        collected = list(page["solutions"])
        # Cancel the live session; the cursor must still finish the stream.
        status, cancelled = http_json(
            daemon, "POST", "/v1/cancel", {"session_id": page["session_id"]}
        )
        assert status == 200 and cancelled["cancelled"] is True
        status, rest = http_json(
            daemon, "POST", "/v1/paginate",
            {"cursor": page["cursor"], "page_size": 1000},
        )
        assert status == 200
        assert collected + rest["solutions"] == expected_solutions()

    def test_error_statuses(self, daemon):
        assert http_json(daemon, "GET", "/nope")[0] == 404
        assert http_json(daemon, "POST", "/healthz", {})[0] == 405
        assert http_json(daemon, "POST", "/v1/enumerate", {"query": {"k": 1}})[0] == 400
        assert http_json(
            daemon, "POST", "/v1/paginate", {"session_id": "gone"}
        )[0] == 404
        assert http_json(daemon, "POST", "/v1/paginate", {"cursor": "junk"})[0] == 400
        assert http_json(daemon, "POST", "/v1/cancel", {})[0] == 400


class TestQueryCLI:
    def run_cli(self, capsys, *argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    def test_server_run_equals_library_run(self, daemon, graph_file, capsys):
        code, out = self.run_cli(
            capsys, "query", "run", "--input", graph_file, "--format", "json"
        )
        assert code == 0
        library = json.loads(out)
        code, out = self.run_cli(
            capsys, "query", "run", "--input", graph_file,
            "--server", daemon, "--page-size", "3", "--format", "json",
        )
        assert code == 0
        service = json.loads(out)
        assert service["solutions"] == library["solutions"]
        assert service["num_solutions"] == 13

    def test_table_and_csv_formats(self, daemon, graph_file, capsys):
        code, out = self.run_cli(
            capsys, "query", "run", "--input", graph_file,
            "--server", daemon, "--format", "table",
        )
        assert code == 0
        assert out.count("L: [") == 13
        assert "# solutions=13" in out
        code, out = self.run_cli(
            capsys, "query", "run", "--input", graph_file,
            "--server", daemon, "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["left", "right"]
        assert len(rows) == 14  # header + 13 solutions

    def test_status_subcommand(self, daemon, capsys):
        code, out = self.run_cli(capsys, "query", "status", "--server", daemon)
        assert code == 0
        assert "graph_loads" in json.loads(out)

    def test_unreachable_server_is_a_clean_error(self, capsys, graph_file):
        code = cli_main(
            ["query", "run", "--input", graph_file,
             "--server", "http://127.0.0.1:9", "--format", "json"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_local_pagination_equals_one_shot(self, graph_file, capsys):
        code, out = self.run_cli(
            capsys, "query", "run", "--input", graph_file,
            "--page-size", "2", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["solutions"] == expected_solutions()


# --------------------------------------------------------------------- #
# Mutable epochs over the wire (PR 10): /v1/update, stale cursors,
# unknown-session 404s, the rate limiter, and the query-CLI additions.
# --------------------------------------------------------------------- #
from contextlib import contextmanager

from repro.graph import BipartiteGraph
from repro.service import RateLimiter


@contextmanager
def live_daemon(server: ServiceHTTPServer):
    """Boot ``server`` on a background loop; yields its base URL."""
    started = threading.Event()
    loop_holder = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop_holder["loop"] = loop

        async def boot():
            await server.start()
            started.set()
            await server.serve_forever()

        try:
            loop.run_until_complete(boot())
        except asyncio.CancelledError:
            pass
        finally:
            loop.run_until_complete(server.aclose())
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=10), "daemon failed to start"
    try:
        yield f"http://127.0.0.1:{server.port}"
    finally:
        loop = loop_holder["loop"]
        for task in asyncio.all_tasks(loop):
            loop.call_soon_threadsafe(task.cancel)
        thread.join(timeout=10)


def inline_query(**overrides):
    """An inline graph spec (own registry key: no cross-test interference)."""
    graph = BipartiteGraph(
        4, 4, [(v, u) for v in range(4) for u in range(4) if (v + u) % 3]
    )
    query = {
        "graph": {
            "n_left": 4,
            "n_right": 4,
            "edges": [list(edge) for edge in sorted(graph.edges())],
        },
        "k": 1,
    }
    query.update(overrides)
    return query


class TestUpdateRoute:
    def test_update_then_stale_cursor_409(self, daemon):
        query = inline_query()
        status, page = http_json(
            daemon, "POST", "/v1/enumerate",
            {"query": query, "paginate": True, "page_size": 2},
        )
        assert status == 200
        before = page["status"]["num_solutions"]

        status, outcome = http_json(
            daemon, "POST", "/v1/update",
            {"graph": query["graph"], "insert": [[3, 3]]},
        )
        assert status == 200
        assert outcome["epoch"] == 1 and outcome["added"] == 1
        assert outcome["plans_invalidated"] >= 1

        # The pre-update cursor is now stale: 409 with a machine code.
        status, error = http_json(
            daemon, "POST", "/v1/paginate", {"cursor": page["cursor"]}
        )
        assert status == 409
        assert error["code"] == "stale_cursor"
        assert "stale_cursor" in error["error"]

        # A fresh query sees the mutated graph.
        status, after = http_json(daemon, "POST", "/v1/enumerate", {"query": query})
        assert status == 200
        assert after["status"]["num_solutions"] != before

    def test_live_session_across_update_is_409(self, daemon):
        from repro.graph import erdos_renyi_bipartite

        graph = erdos_renyi_bipartite(12, 12, num_edges=60, seed=0)
        spec = {
            "n_left": 12,
            "n_right": 12,
            "edges": [list(edge) for edge in sorted(graph.edges())],
        }
        status, page = http_json(
            daemon, "POST", "/v1/enumerate",
            {"query": {"graph": spec, "k": 1, "jobs": 1}, "paginate": True, "page_size": 5},
        )
        assert status == 200 and not page["exhausted"]
        absent = [
            [v, u] for v in range(12) for u in range(12) if not graph.has_edge(v, u)
        ][:10]
        status, _ = http_json(daemon, "POST", "/v1/update", {"graph": spec, "insert": absent})
        assert status == 200
        status, error = http_json(
            daemon, "POST", "/v1/paginate",
            {"session_id": page["session_id"], "page_size": 5},
        )
        assert status == 409 and error["code"] == "stale_cursor"

    def test_edited_cursor_query_is_400(self, daemon):
        from repro.service.query import _decode_service_cursor, _encode_service_cursor

        status, page = http_json(
            daemon, "POST", "/v1/enumerate",
            {"query": inline_query(), "paginate": True, "page_size": 2},
        )
        assert status == 200
        data = _decode_service_cursor(page["cursor"])
        data["query"]["backend"] = "bitset"
        status, error = http_json(
            daemon, "POST", "/v1/paginate", {"cursor": _encode_service_cursor(data)}
        )
        assert status == 400 and "backend" in error["error"]

    def test_update_validation_400s(self, daemon):
        query = inline_query()
        http_json(daemon, "POST", "/v1/enumerate", {"query": query})
        status, error = http_json(
            daemon, "POST", "/v1/update", {"graph": query["graph"]}
        )
        assert status == 400 and "non-empty" in error["error"]
        status, error = http_json(
            daemon, "POST", "/v1/update",
            {"graph": query["graph"], "insert": [[99, 0]]},
        )
        assert status == 400 and "out of range" in error["error"]

    def test_unknown_session_is_404_not_500(self, daemon):
        status, error = http_json(
            daemon, "POST", "/v1/cancel", {"session_id": "never-existed"}
        )
        assert status == 404
        assert error["code"] == "unknown_session"
        assert "never-existed" in error["error"]
        status, error = http_json(
            daemon, "POST", "/v1/paginate", {"session_id": "never-existed"}
        )
        assert status == 404
        # Type confusion stays a 400, not a 500.
        assert http_json(daemon, "POST", "/v1/cancel", {"session_id": 7})[0] == 400
        assert http_json(
            daemon, "POST", "/v1/paginate", {"session_id": 7}
        )[0] == 400
        assert http_json(
            daemon, "POST", "/v1/paginate", {"cursor": "x", "page_size": "many"}
        )[0] == 400


class TestRateLimitedDaemon:
    def test_429_with_retry_after_then_recovery(self):
        clock = {"now": 0.0}
        limiter = RateLimiter(rate=1.0, burst=2, clock=lambda: clock["now"])
        server = ServiceHTTPServer(port=0, limiter=limiter)
        with live_daemon(server) as url:
            import urllib.error
            import urllib.request

            assert http_json(url, "GET", "/healthz") == (200, {"ok": True})
            assert http_json(url, "GET", "/healthz") == (200, {"ok": True})
            request = urllib.request.Request(url + "/healthz")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] == "1"
            body = json.loads(excinfo.value.read())
            assert body["error"] == "rate limit exceeded"
            assert body["retry_after"] == 1
            # Refill: the same client is welcome again.
            clock["now"] = 5.0
            assert http_json(url, "GET", "/healthz") == (200, {"ok": True})
            # The rejection shows up in the metrics snapshot.
            status, metrics = http_json(url, "GET", "/v1/metrics")
            assert status == 200
            assert metrics["counters"].get("http_rate_limited_total", 0) >= 1


class TestQueryUpdateCLI:
    def test_update_roundtrip(self, daemon, tmp_path, capsys):
        graph = BipartiteGraph(
            4, 4, [(v, u) for v in range(4) for u in range(4) if (v + u) % 3]
        )
        path = tmp_path / "mutable.txt"
        write_edge_list(graph, path)
        code = cli_main(
            ["query", "run", "--input", str(path), "--server", daemon,
             "--format", "json"]
        )
        assert code == 0
        before = json.loads(capsys.readouterr().out)["num_solutions"]
        code = cli_main(
            ["query", "update", "--input", str(path), "--server", daemon,
             "--insert", "3:3"]
        )
        assert code == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["epoch"] == 1 and outcome["added"] == 1
        code = cli_main(
            ["query", "run", "--input", str(path), "--server", daemon,
             "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["num_solutions"] != before

    def test_bad_edge_flag_is_a_clean_error(self, daemon, graph_file, capsys):
        code = cli_main(
            ["query", "update", "--input", graph_file, "--server", daemon,
             "--insert", "3-3"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "not of the form L:R" in captured.err


class TestStatsWatchCleanExit:
    SNAPSHOT = {"schema": "repro-metrics/1", "series": []}

    def test_ctrl_c_exits_zero(self, monkeypatch, capsys):
        import time as time_module

        monkeypatch.setattr(
            "repro.cli._server_request", lambda *a, **k: dict(self.SNAPSHOT)
        )

        def interrupt(_seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(time_module, "sleep", interrupt)
        code = cli_main(
            ["query", "stats", "--server", "http://unused", "--watch", "1"]
        )
        assert code == 0
        capsys.readouterr()

    def test_closed_pipe_exits_zero(self, monkeypatch):
        import sys as sys_module

        monkeypatch.setattr(
            "repro.cli._server_request", lambda *a, **k: dict(self.SNAPSHOT)
        )

        class DeadPipe:
            def write(self, _text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                raise OSError("stream has no descriptor")

        monkeypatch.setattr(sys_module, "stdout", DeadPipe())
        code = cli_main(
            ["query", "stats", "--server", "http://unused", "--watch", "1"]
        )
        assert code == 0
