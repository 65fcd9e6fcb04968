"""Tests of the observability layer (:mod:`repro.obs`) and its wiring.

Four groups:

* unit tests of the registry / tracing / slow-log primitives (snapshot
  determinism, disabled no-op, span-tree shape, threshold gating);
* service-level tests: trace blocks behind the per-request opt-in,
  span-tree shape serial vs ``jobs=2`` (worker spans grafted across the
  process boundary), cache hit/miss counters;
* daemon end-to-end: ``/v1/metrics`` (JSON + text), generic 500 bodies
  with the traceback exchanged for a ``trace_id`` through the error log,
  Content-Length validation, slow-query records;
* the session-table locking regression (close under the record lock,
  never under the table lock).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro import paper_example_graph, write_edge_list
from repro.core import ITraversal
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    Trace,
    current_trace,
    publish_run_stats,
    render_snapshot_text,
    reset_registry,
    series_key,
    span,
    trace,
)
from repro.service import Budgets, QueryService
from repro.service.http import ServiceHTTPServer
from repro.service.sessions import SessionTable


# --------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_series_key_sorts_labels(self):
        assert series_key("m", {}) == "m"
        assert series_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"

    def test_snapshot_is_deterministic(self):
        def drive(registry):
            registry.inc("requests_total", route="enumerate", outcome="ok")
            registry.inc("requests_total", value=2, route="paginate", outcome="ok")
            registry.observe("latency_ms", 12.0, route="enumerate")
            registry.observe("latency_ms", 700.0, route="enumerate")
            return registry.snapshot()

        first = drive(MetricsRegistry())
        second = drive(MetricsRegistry())
        assert first == second
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert list(first["counters"]) == sorted(first["counters"])

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        registry.observe("ms", 0.5)
        registry.observe("ms", 3.0)
        registry.observe("ms", 99999.0)
        data = registry.snapshot()["histograms"]["ms"]
        assert data["count"] == 3
        assert data["buckets"]["le_1"] == 1
        assert data["buckets"]["le_5"] == 1
        assert data["buckets"]["le_inf"] == 1
        assert data["sum_ms"] == pytest.approx(100002.5)

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("a")
        registry.observe("c", 5.0)
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert registry.counter_value("a") == 0

    def test_text_rendering(self):
        registry = MetricsRegistry()
        registry.inc("hits", route="x")
        registry.observe("ms", 3.0)
        snapshot = registry.snapshot()
        # The gauges section is the service's (QueryService.metrics).
        snapshot["gauges"]["live"] = 2
        text = render_snapshot_text(snapshot)
        assert "counter hits{route=x} 1" in text
        assert "gauge live 2" in text
        assert "histogram ms count=1" in text

    def test_publish_run_stats_per_site_counters(self):
        registry = MetricsRegistry()
        algorithm = ITraversal(paper_example_graph(), 1)
        algorithm.enumerate()
        publish_run_stats(algorithm.stats, registry=registry)
        snapshot = registry.snapshot()["counters"]
        assert snapshot["engine_runs_total"] == 1
        assert snapshot["engine_solutions_total"] == 13
        # The paper graph exercises at least one prune site.
        assert any(key.startswith("engine_pruned_total{site=") for key in snapshot)

    def test_publish_run_stats_disabled_is_a_noop(self):
        registry = MetricsRegistry(enabled=False)
        algorithm = ITraversal(paper_example_graph(), 1)
        algorithm.enumerate()
        publish_run_stats(algorithm.stats, registry=registry)
        assert registry.snapshot()["counters"] == {}

    def test_env_switch_disables_global_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "off")
        registry = reset_registry()
        try:
            assert registry.enabled is False
        finally:
            monkeypatch.delenv("REPRO_OBS")
            reset_registry()


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #
class TestTracing:
    def test_span_tree_shape(self):
        with trace("request") as active:
            with span("parse"):
                pass
            with span("traverse"):
                with span("inner"):
                    pass
        document = active.to_dict()
        names = [child["name"] for child in document["root"]["children"]]
        assert names == ["parse", "traverse"]
        traverse = document["root"]["children"][1]
        assert [c["name"] for c in traverse["children"]] == ["inner"]
        assert document["trace_id"] == active.trace_id

    def test_disabled_trace_yields_none_and_span_noops(self):
        with trace("request", enabled=False) as active:
            assert active is None
            assert current_trace() is None
            with span("phase"):  # must not blow up without a trace
                pass

    def test_attach_grafts_under_active_span(self):
        worker = {"name": "worker[0]", "elapsed_ms": 1.0}
        with trace("request") as active:
            with span("traverse"):
                current_trace().attach(worker)
        traverse = active.to_dict()["root"]["children"][0]
        assert worker in traverse["children"]

    def test_nested_traces_restore_outer(self):
        with trace("outer") as outer:
            with trace("inner"):
                assert current_trace().root.name == "inner"
            assert current_trace() is outer
        assert current_trace() is None

    def test_phase_times_sum_close_to_total(self):
        with trace("request") as active:
            with span("a"):
                time.sleep(0.02)
            with span("b"):
                time.sleep(0.02)
        document = active.to_dict()
        total = document["root"]["elapsed_ms"]
        phase_sum = sum(c["elapsed_ms"] for c in document["root"]["children"])
        assert phase_sum <= total
        assert phase_sum >= 0.9 * total

    def test_trace_explicit_id_is_kept(self):
        assert Trace("r", trace_id="abc123").trace_id == "abc123"


# --------------------------------------------------------------------- #
# Slow-query log
# --------------------------------------------------------------------- #
class TestSlowQueryLog:
    def test_threshold_gates_records(self, tmp_path):
        sink = tmp_path / "slow.jsonl"
        log = SlowQueryLog(threshold_ms=50.0, path=str(sink))
        assert log.record("enumerate", 10.0, "t1") is False
        assert log.record("enumerate", 60.0, "t2") is True
        lines = [json.loads(line) for line in sink.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["kind"] == "slow_query"
        assert lines[0]["trace_id"] == "t2"
        assert lines[0]["route"] == "enumerate"

    def test_no_threshold_disables_slow_records(self, tmp_path):
        log = SlowQueryLog(path=str(tmp_path / "slow.jsonl"))
        assert log.record("enumerate", 1e9, "t") is False

    def test_error_records_always_write(self, tmp_path):
        sink = tmp_path / "log.jsonl"
        log = SlowQueryLog(path=str(sink))  # no threshold at all
        log.error("http", "tid", "Traceback ...")
        record = json.loads(sink.read_text())
        assert record["kind"] == "error"
        assert record["trace_id"] == "tid"
        assert "Traceback" in record["traceback"]

    def test_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "125.5")
        monkeypatch.setenv("REPRO_SLOW_QUERY_LOG", str(tmp_path / "s.jsonl"))
        log = SlowQueryLog.from_env()
        assert log.threshold_ms == 125.5
        assert log.path == str(tmp_path / "s.jsonl")
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "not-a-number")
        assert SlowQueryLog.from_env().threshold_ms is None  # disabled, no crash


# --------------------------------------------------------------------- #
# Service-level wiring
# --------------------------------------------------------------------- #
@pytest.fixture()
def fresh_registry(monkeypatch):
    # Pin the layer on regardless of the ambient environment: these tests
    # assert enabled-mode behaviour (the explicit REPRO_OBS=0 test below
    # covers the disabled mode and sets the variable itself).
    monkeypatch.delenv("REPRO_OBS", raising=False)
    registry = reset_registry()
    yield registry
    reset_registry()


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs-graphs") / "paper.txt"
    write_edge_list(paper_example_graph(), path)
    return str(path)


def _phase_names(trace_block):
    return [child["name"] for child in trace_block["root"]["children"]]


class TestServiceObservability:
    def test_trace_block_is_opt_in(self, fresh_registry, graph_file):
        service = QueryService()
        query = {"graph": {"path": graph_file}, "k": 1}
        plain = service.enumerate(query)
        assert "trace" not in plain
        assert "trace_id" in plain
        traced = service.enumerate({**query, "trace": True})
        assert "trace" in traced
        # The trace flag is not part of the canonical query: the second
        # call hit the cache of the first.
        assert traced["cached"] is True
        assert traced["trace_id"] != plain["trace_id"]

    def test_serial_trace_phases(self, fresh_registry, graph_file):
        service = QueryService()
        response = service.enumerate(
            {"graph": {"path": graph_file}, "k": 1, "jobs": 1, "trace": True}
        )
        assert response["cached"] is False
        names = _phase_names(response["trace"])
        assert names == ["parse", "load", "plan", "traverse", "serialize"]
        root = response["trace"]["root"]
        phase_sum = sum(child["elapsed_ms"] for child in root["children"])
        assert phase_sum <= root["elapsed_ms"] * 1.10

    def test_cli_enumerate_traces_the_service_query(self, fresh_registry, graph_file, capsys):
        from repro.cli import main

        argv = ["enumerate", "--input", graph_file, "--jobs", "1", "--json", "--trace", "--quiet"]
        assert main(argv) == 0
        trace_block = json.loads(capsys.readouterr().out)["trace"]
        assert trace_block["root"]["name"] == "query.enumerate"
        assert _phase_names(trace_block) == ["parse", "load", "plan", "traverse", "serialize"]

    def test_phases_cover_the_cold_load_and_the_cursor_mint(
        self, fresh_registry, graph_file, monkeypatch
    ):
        """A cold one-shot spends its graph load, and a page its cursor
        mint, inside a phase: with both slowed down, the root's phases
        still cover at least 90 % of it."""
        from repro.core.session import EnumerationSession
        from repro.service import query as query_module

        read, mint = query_module.read_edge_list, EnumerationSession.cursor

        def slow_read(path):
            time.sleep(0.05)
            return read(path)

        def slow_mint(session, query=None):
            time.sleep(0.05)
            return mint(session, query=query)

        monkeypatch.setattr(query_module, "read_edge_list", slow_read)
        monkeypatch.setattr(EnumerationSession, "cursor", slow_mint)
        service = QueryService()
        query = {"graph": {"path": graph_file}, "k": 1, "jobs": 1, "trace": True}
        cold = service.enumerate(query)
        first = service.open_session(query, page_size=4)
        page = service.next_page(
            session_id=first["session_id"], page_size=4, want_trace=True
        )
        assert _phase_names(cold["trace"])[:2] == ["parse", "load"]
        for response in (cold, first, page):
            root = response["trace"]["root"]
            phase_sum = sum(child["elapsed_ms"] for child in root["children"])
            assert phase_sum >= 0.9 * root["elapsed_ms"], response["trace"]

    def test_parallel_trace_grafts_worker_spans(self, fresh_registry, graph_file):
        service = QueryService()
        response = service.enumerate(
            {"graph": {"path": graph_file}, "k": 1, "jobs": 2, "trace": True}
        )
        assert response["cached"] is False
        traverse = next(
            child
            for child in response["trace"]["root"]["children"]
            if child["name"] == "traverse"
        )
        workers = [
            child
            for child in traverse.get("children", [])
            if child["name"].startswith("worker[")
        ]
        assert workers, "parallel run must graft worker spans under traverse"
        shard_names = [
            grandchild["name"]
            for child in workers
            for grandchild in child.get("children", [])
        ]
        assert shard_names and all(name.startswith("shard[") for name in shard_names)
        assert all(child["trace_id"] == response["trace"]["trace_id"] for child in workers)

    def test_request_and_cache_counters(self, fresh_registry, graph_file):
        service = QueryService()
        query = {"graph": {"path": graph_file}, "k": 1}
        service.enumerate(query)
        service.enumerate(query)
        with pytest.raises(Exception):
            service.enumerate({"graph": {"path": graph_file}})  # missing k
        counters = service.metrics()["counters"]
        assert counters["service_requests_total{outcome=ok,route=enumerate}"] == 2
        assert counters["service_requests_total{outcome=error,route=enumerate}"] == 1
        assert counters["service_result_cache_total{outcome=miss}"] == 1
        assert counters["service_result_cache_total{outcome=hit}"] == 1
        assert counters["registry_cache_total{cache=graph,outcome=miss}"] == 1
        assert counters["engine_runs_total"] == 1

    def test_cacheless_service_counts_no_cache_outcome(self, fresh_registry):
        """Capacity 0 (the CLI's service) has no cache to hit or miss."""
        service = QueryService(result_cache_capacity=0)
        graph = paper_example_graph()
        query = {
            "graph": {
                "n_left": graph.n_left,
                "n_right": graph.n_right,
                "edges": [list(edge) for edge in graph.edges()],
            },
            "k": 1,
        }
        first = service.enumerate(query)
        second = service.enumerate(query)
        assert first["cached"] is second["cached"] is False
        counters = service.metrics()["counters"]
        assert not any(name.startswith("service_result_cache_total") for name in counters)
        assert counters["service_requests_total{outcome=ok,route=enumerate}"] == 2
        assert service.stats()["queries"] == 2

    def test_session_counters(self, fresh_registry, graph_file):
        service = QueryService()
        query = {"graph": {"path": graph_file}, "k": 1}
        page = service.open_session(query, page_size=4)
        while not page["exhausted"]:
            page = service.next_page(
                session_id=page["session_id"], cursor=page["cursor"], page_size=4
            )
        counters = service.metrics()["counters"]
        assert counters["service_sessions_total{event=created}"] == 1
        assert counters["service_requests_total{outcome=ok,route=open_session}"] == 1
        assert counters["service_requests_total{outcome=ok,route=next_page}"] >= 1

    def test_disabled_layer_suppresses_traces_and_metrics(
        self, monkeypatch, graph_file
    ):
        monkeypatch.setenv("REPRO_OBS", "0")
        registry = reset_registry()
        try:
            service = QueryService()
            response = service.enumerate(
                {"graph": {"path": graph_file}, "k": 1, "trace": True}
            )
            assert "trace" not in response  # opt-in cannot override the kill switch
            assert "trace_id" in response  # ids still flow (error correlation)
            assert registry.snapshot()["counters"] == {}
        finally:
            monkeypatch.delenv("REPRO_OBS")
            reset_registry()

    def test_slow_query_log_records_service_requests(self, fresh_registry, graph_file, tmp_path):
        sink = tmp_path / "slow.jsonl"
        service = QueryService(
            slow_log=SlowQueryLog(threshold_ms=0.0, path=str(sink))
        )
        response = service.enumerate({"graph": {"path": graph_file}, "k": 1})
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["kind"] == "slow_query"
        assert records[0]["route"] == "enumerate"
        assert records[0]["trace_id"] == response["trace_id"]


# --------------------------------------------------------------------- #
# Daemon end-to-end
# --------------------------------------------------------------------- #
@pytest.fixture()
def obs_daemon(tmp_path, monkeypatch):
    """A live daemon with a file-backed slow log; yields (url, server, sink)."""
    monkeypatch.delenv("REPRO_OBS", raising=False)
    reset_registry()
    sink = tmp_path / "obslog.jsonl"
    service = QueryService(slow_log=SlowQueryLog(path=str(sink)))
    server = ServiceHTTPServer(service=service, port=0)
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
    yield f"http://127.0.0.1:{server.port}", server, sink
    loop = loop_holder["loop"]
    for task in asyncio.all_tasks(loop):
        loop.call_soon_threadsafe(task.cancel)
    thread.join(timeout=10)
    reset_registry()


def _http(server: str, method: str, path: str, payload=None, raw=False):
    import urllib.error
    import urllib.request

    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        server + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            body = response.read()
            return response.status, body if raw else json.loads(body)
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, body if raw else json.loads(body)


def _raw_request(url: str, request_bytes: bytes) -> bytes:
    host, port = url.replace("http://", "").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as client:
        client.sendall(request_bytes)
        client.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = client.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestDaemonObservability:
    def test_metrics_endpoint_counts_traffic(self, obs_daemon, graph_file):
        url, _, _ = obs_daemon
        reset_registry()
        try:
            query = {"graph": {"path": graph_file}, "k": 1}
            for _ in range(2):
                status, _body = _http(url, "POST", "/v1/enumerate", {"query": query})
                assert status == 200
            status, snapshot = _http(url, "GET", "/v1/metrics")
            assert status == 200
            counters = snapshot["counters"]
            assert counters["http_requests_total{path=/v1/enumerate,status=200}"] == 2
            assert counters["service_requests_total{outcome=ok,route=enumerate}"] == 2
            assert counters["service_result_cache_total{outcome=miss}"] == 1
            assert counters["service_result_cache_total{outcome=hit}"] == 1
            assert (
                "http_request_ms{path=/v1/enumerate}" in snapshot["histograms"]
            )
        finally:
            reset_registry()

    def test_metrics_text_format(self, obs_daemon):
        url, _, _ = obs_daemon
        status, body = _http(url, "GET", "/v1/metrics?format=text", raw=True)
        assert status == 200
        text = body.decode()
        assert text == "" or text.splitlines()[0].split()[0] in (
            "counter", "gauge", "histogram",
        )

    def test_trace_block_round_trips(self, obs_daemon, graph_file):
        url, _, _ = obs_daemon
        status, response = _http(
            url, "POST", "/v1/enumerate",
            {"query": {"graph": {"path": graph_file}, "k": 1, "jobs": 1}, "trace": True},
        )
        assert status == 200
        assert response["trace"]["trace_id"] == response["trace_id"]
        assert "traverse" in _phase_names(response["trace"])

    def test_bad_content_length_is_400(self, obs_daemon):
        url, _, sink = obs_daemon
        # The last case declares 100 body bytes and sends 9 before closing.
        for bad, body in ((b"abc", b""), (b"-5", b""), (b"", b""), (b"100", b'{"query":')):
            raw = _raw_request(
                url,
                b"POST /v1/enumerate HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Length: " + bad + b"\r\n\r\n" + body,
            )
            head = raw.split(b"\r\n", 1)[0]
            assert b"400" in head, (bad, head)
            assert b"Content-Length header" in raw.split(b"\r\n\r\n", 1)[1]
        records = sink.read_text().splitlines() if sink.exists() else []
        assert not [r for r in map(json.loads, records) if r["kind"] == "error"]

    def test_missing_content_length_still_works(self, obs_daemon):
        url, _, _ = obs_daemon
        raw = _raw_request(url, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert b"200" in raw.split(b"\r\n", 1)[0]

    def test_500_is_generic_and_logged(self, obs_daemon):
        url, server, sink = obs_daemon

        def explode(*_args, **_kwargs):
            raise RuntimeError("secret internal detail")

        original = server.service.enumerate
        server.service.enumerate = explode
        try:
            status, response = _http(url, "POST", "/v1/enumerate", {"query": {}})
        finally:
            server.service.enumerate = original
        assert status == 500
        assert response["error"] == "internal server error"
        assert "secret internal detail" not in json.dumps(response)
        trace_id = response["trace_id"]
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        errors = [r for r in records if r["kind"] == "error"]
        assert len(errors) == 1
        assert errors[0]["trace_id"] == trace_id
        assert "secret internal detail" in errors[0]["traceback"]

    def test_slow_query_log_through_daemon(self, obs_daemon, graph_file):
        url, server, sink = obs_daemon
        server.service.slow_log.threshold_ms = 0.0
        try:
            status, _ = _http(
                url, "POST", "/v1/enumerate",
                {"query": {"graph": {"path": graph_file}, "k": 1}},
            )
            assert status == 200
        finally:
            server.service.slow_log.threshold_ms = None
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        assert any(
            r["kind"] == "slow_query" and r["route"] == "enumerate" for r in records
        )


# --------------------------------------------------------------------- #
# Session-table locking regression
# --------------------------------------------------------------------- #
class _BlockingCloseSession:
    """A fake session whose close() grabs an external lock.

    Models the real deadlock: EnumerationSession.close() can run
    arbitrary teardown, and the old table closed records while holding
    the table lock — a close that needs the table lock (or any lock a
    pager thread holds while calling into the table) deadlocked.
    """

    def __init__(self, table_lock_getter):
        self._get_lock = table_lock_getter
        self.closed = threading.Event()

    def close(self):
        with self._get_lock():  # must be acquirable => not held by the table
            self.closed.set()


class TestSessionTableLocking:
    def test_eviction_closes_outside_the_table_lock(self):
        clock = {"now": 0.0}
        table = SessionTable(ttl_seconds=10.0, capacity=8, clock=lambda: clock["now"])
        session = _BlockingCloseSession(lambda: table._lock)
        record = table.create(session)  # noqa: F841 - kept live via the table
        clock["now"] = 100.0  # expire it

        done = threading.Event()

        def sweep():
            table.sweep()
            done.set()

        worker = threading.Thread(target=sweep, daemon=True)
        worker.start()
        assert done.wait(timeout=5), "sweep deadlocked closing an expired session"
        assert session.closed.is_set()

    def test_capacity_eviction_closes_outside_the_table_lock(self):
        clock = {"now": 0.0}
        table = SessionTable(ttl_seconds=1000.0, capacity=1, clock=lambda: clock["now"])
        first = _BlockingCloseSession(lambda: table._lock)
        table.create(first)

        done = threading.Event()

        def create_second():
            table.create(_BlockingCloseSession(lambda: table._lock))
            done.set()

        worker = threading.Thread(target=create_second, daemon=True)
        worker.start()
        assert done.wait(timeout=5), "capacity eviction deadlocked"
        assert first.closed.is_set()

    def test_close_waits_for_the_record_lock(self):
        """A sweep must not tear a session down under an active pager."""
        clock = {"now": 0.0}
        table = SessionTable(ttl_seconds=10.0, capacity=8, clock=lambda: clock["now"])
        closed_while_held = []

        class Probe:
            def close(self):
                closed_while_held.append(holder_active.is_set())

        record = table.create(Probe())
        holder_active = threading.Event()
        release = threading.Event()

        def pager():
            with record.lock:
                holder_active.set()
                release.wait(timeout=5)
                holder_active.clear()

        holder = threading.Thread(target=pager, daemon=True)
        holder.start()
        assert holder_active.wait(timeout=5)
        clock["now"] = 100.0

        swept = threading.Event()

        def sweep():
            table.sweep()
            swept.set()

        sweeper = threading.Thread(target=sweep, daemon=True)
        sweeper.start()
        time.sleep(0.1)
        # The sweep is parked on the record lock while the pager holds it.
        assert not swept.is_set()
        assert closed_while_held == []
        release.set()
        assert swept.wait(timeout=5)
        holder.join(timeout=5)
        assert closed_while_held == [False]

    def test_record_lock_is_reentrant_for_self_removal(self):
        """QueryService._page removes an exhausted record it still holds."""
        table = SessionTable(ttl_seconds=10.0, capacity=8)

        class Noop:
            def close(self):
                pass

        record = table.create(Noop())
        with record.lock:
            assert table.remove(record.session_id) is True  # must not self-deadlock

    def test_threaded_pagination_with_ttl_churn(self, graph_file):
        """Concurrent pagers + sweeps + evictions: no deadlock, no error."""
        clock = {"now": 0.0}
        tick = threading.Lock()

        def now():
            with tick:
                return clock["now"]

        table = SessionTable(ttl_seconds=5.0, capacity=4, clock=now)
        service = QueryService(
            sessions=table, budgets=Budgets(max_page_size=1000)
        )
        query = {"graph": {"path": graph_file}, "k": 1}
        errors = []
        barrier = threading.Barrier(4)

        def paginate():
            try:
                barrier.wait(timeout=10)
                for _ in range(3):
                    page = service.open_session(dict(query), page_size=3)
                    while not page["exhausted"]:
                        page = service.next_page(
                            session_id=page["session_id"],
                            cursor=page["cursor"],
                            page_size=3,
                        )
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        def churn():
            try:
                barrier.wait(timeout=10)
                for _ in range(30):
                    with tick:
                        clock["now"] += 1.0
                    table.sweep()
                    time.sleep(0.005)
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        threads = [threading.Thread(target=paginate, daemon=True) for _ in range(3)]
        threads.append(threading.Thread(target=churn, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "worker deadlocked"
        assert errors == []
