"""A stdlib-asyncio HTTP/JSON front end for :class:`~repro.service.query.QueryService`.

No web framework — the package depends on the standard library only — so this is a
deliberately small HTTP/1.1 server on ``asyncio.start_server``: parse one
request, dispatch, write one JSON response, close.  Enumeration work is
synchronous CPU-bound Python, so handlers run it on a thread pool via
``run_in_executor``; concurrency control lives below this layer (the
session table's per-record locks serialize pagination of one session,
distinct sessions and distinct queries proceed in parallel).

Routes (all responses JSON unless noted):

========  ==============  ====================================================
method    path            body
========  ==============  ====================================================
GET       /healthz        —
GET       /v1/stats       —
GET       /v1/metrics     — (``?format=text`` for the plain-text rendering)
POST      /v1/enumerate   ``{"query": {...}}`` one-shot, or
                          ``{"query": {...}, "paginate": true,
                          "page_size": N}`` for the first page
POST      /v1/paginate    ``{"session_id": ..., "cursor": ..., "page_size": N}``
POST      /v1/cancel      ``{"session_id": ...}``
POST      /v1/update      ``{"graph": {...}, "insert": [[l, r], ...],
                          "delete": [[l, r], ...]}``
========  ==============  ====================================================

A top-level ``"trace": true`` in a POST body (or inside the query
document) opts the request into a ``trace`` block in the response.

Errors map to ``{"error": message}`` with 400 (bad query / bad cursor /
bad Content-Length), 404 (expired session, unknown cancel target, unknown
route), 405, 409 (``"code": "stale_cursor"`` — the cursor predates a
graph update; re-run the query), 429 (rate limited, with ``Retry-After``;
see :mod:`repro.service.ratelimit` — off unless ``REPRO_RATE_LIMIT`` or
``--rate-limit`` is set) or 500.  A 500 body is deliberately generic —
``{"error": "internal server error", "trace_id": ...}`` — with the
traceback written server-side to the error log under that ``trace_id``,
never into the response.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple, Union
from urllib.parse import parse_qs

from ..obs import get_registry, new_trace_id, render_snapshot_text
from .query import QueryError, QueryService, ServiceStaleCursorError
from .ratelimit import RateLimiter, limiter_from_env
from .sessions import SessionExpired

#: Largest accepted request body (inline graphs included).
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Threads that run requests off the event loop.
EXECUTOR_WORKERS = 8

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class ServiceHTTPServer:
    """One query service behind one listening socket."""

    def __init__(
        self,
        service: Optional[QueryService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_limit: Optional[float] = None,
        limiter: Optional[RateLimiter] = None,
    ) -> None:
        self.service = service if service is not None else QueryService()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        # Explicit limiter (tests) > --rate-limit flag > REPRO_RATE_LIMIT
        # env > off.
        self._limiter = limiter if limiter is not None else limiter_from_env(rate_limit)
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_WORKERS, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------ #
    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port — the tests (and the CI smoke
        job) read the real one from the return value.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=False)
        self.service.close()

    def run(self) -> None:  # pragma: no cover - exercised via `python -m repro.serve`
        """Blocking convenience wrapper: start and serve until interrupted."""

        async def _main() -> None:
            host, port = await self.start()
            print(f"repro service listening on http://{host}:{port}", flush=True)
            await self.serve_forever()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.perf_counter()
        route = None
        extra_headers = {}
        try:
            rejection = self._rate_limit_check(writer)
            if rejection is not None:
                # The request is never parsed, but its bytes must still be
                # consumed: responding to a half-sent POST and closing makes
                # the client see EPIPE mid-upload instead of the 429.
                await self._drain_request(reader)
                status, payload, route, extra_headers = rejection
            else:
                status, payload, route = await self._handle_request(reader)
        except Exception:  # never let a handler kill the loop
            # The client gets a generic body plus a fresh trace_id; the
            # traceback goes to the server-side error log under that id —
            # exception text must not leak implementation detail.
            trace_id = new_trace_id()
            self.service.slow_log.error(
                route or "http", trace_id, traceback.format_exc()
            )
            status, payload = 500, {
                "error": "internal server error",
                "trace_id": trace_id,
            }
        metrics = get_registry()
        if metrics.enabled:
            label = route or "unparsed"
            metrics.inc("http_requests_total", path=label, status=status)
            metrics.observe(
                "http_request_ms",
                (time.perf_counter() - started) * 1000.0,
                path=label,
            )
        if isinstance(payload, str):  # /v1/metrics?format=text
            body = payload.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        header_lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        header_lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
        header_lines.append("Connection: close")
        head = ("\r\n".join(header_lines) + "\r\n\r\n").encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _drain_request(self, reader: asyncio.StreamReader) -> None:
        """Read and discard one request so an early rejection can respond.

        Bounded by the stream reader's line limit and ``MAX_BODY_BYTES``;
        malformed or truncated requests are simply abandoned — the
        rejection response is written regardless.
        """
        try:
            header_blob = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5.0
            )
            length = 0
            for line in header_blob.decode("latin-1").split("\r\n")[1:]:
                name, sep, value = line.partition(":")
                if sep and name.strip().lower() == "content-length":
                    length = int(value.strip())
                    break
            if 0 < length <= MAX_BODY_BYTES:
                await asyncio.wait_for(reader.readexactly(length), timeout=5.0)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError, ConnectionError):
            pass

    def _rate_limit_check(self, writer: asyncio.StreamWriter):
        """A ready-to-send 429 tuple when the client is over budget, else ``None``.

        Runs before the request is parsed or dispatched: a rejected
        connection costs the server nothing beyond draining its bytes.
        The route label is the fixed string ``ratelimited`` (the path was
        never parsed) to keep metric cardinality flat.
        """
        if self._limiter is None:
            return None
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) and peer else "unknown"
        allowed, retry_after = self._limiter.allow(client)
        if allowed:
            return None
        retry_seconds = max(1, math.ceil(retry_after))
        metrics = get_registry()
        if metrics.enabled:
            # Deliberately unlabelled: client IPs would make the series
            # cardinality as unbounded as the client population.
            metrics.inc("http_rate_limited_total")
        payload = {
            "error": "rate limit exceeded",
            "retry_after": retry_seconds,
        }
        return 429, payload, "ratelimited", {"Retry-After": str(retry_seconds)}

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Union[dict, str], Optional[str]]:
        """One parsed + dispatched request: ``(status, payload, route)``.

        ``route`` is the path without its query string (``None`` when the
        request never parsed far enough to have one) — it is the metrics
        label, kept low-cardinality on purpose.
        """
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return 400, {"error": "malformed HTTP request"}, None
        request_line, _, header_text = header_blob.decode(
            "latin-1"
        ).partition("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            return 400, {"error": "malformed request line"}, None
        method, target, _version = parts
        path, _, query_string = target.partition("?")
        headers = {}
        for line in header_text.split("\r\n"):
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = 0
        if "content-length" in headers:
            # int() raising out of a raw header used to surface as a 500;
            # a non-numeric, negative or empty Content-Length is the
            # client's error — reject it as such.
            try:
                length = int(headers["content-length"])
            except ValueError:
                return 400, {"error": "invalid Content-Length header"}, path
            if length < 0:
                return 400, {"error": "invalid Content-Length header"}, path
        if length > MAX_BODY_BYTES:
            return 413, {"error": "request body too large"}, path
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            return 400, {"error": "request body shorter than its Content-Length header"}, path
        status, payload = await self._dispatch(method, path, query_string, body)
        return status, payload, path

    async def _dispatch(
        self, method: str, path: str, query_string: str, body: bytes
    ) -> Tuple[int, Union[dict, str]]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {"ok": True}
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, self.service.stats()
        if path == "/v1/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}
            snapshot = self.service.metrics()
            params = parse_qs(query_string)
            if params.get("format", [""])[-1] == "text":
                return 200, render_snapshot_text(snapshot)
            return 200, snapshot
        if path not in ("/v1/enumerate", "/v1/paginate", "/v1/cancel", "/v1/update"):
            return 404, {"error": f"unknown route {path}"}
        if method != "POST":
            return 405, {"error": "use POST"}
        try:
            document = json.loads(body) if body else {}
        except json.JSONDecodeError as error:
            return 400, {"error": f"request body is not JSON: {error}"}
        if not isinstance(document, dict):
            return 400, {"error": "request body must be a JSON object"}
        want_trace = bool(document.get("trace"))
        loop = asyncio.get_running_loop()
        try:
            if path == "/v1/enumerate":
                query = document.get("query")
                if want_trace and isinstance(query, dict):
                    query = {**query, "trace": True}
                if document.get("paginate"):
                    result = await loop.run_in_executor(
                        self._executor,
                        lambda: self.service.open_session(
                            query, page_size=document.get("page_size")
                        ),
                    )
                else:
                    result = await loop.run_in_executor(
                        self._executor, lambda: self.service.enumerate(query)
                    )
            elif path == "/v1/paginate":
                session_id = document.get("session_id")
                cursor = document.get("cursor")
                page_size = document.get("page_size")
                # Wrong-typed fields are the client's error: reject them as
                # 400 here instead of letting a str-assuming code path blow
                # up into a 500 downstream.
                if session_id is not None and not isinstance(session_id, str):
                    return 400, {"error": "session_id must be a string"}
                if cursor is not None and not isinstance(cursor, str):
                    return 400, {"error": "cursor must be a string"}
                result = await loop.run_in_executor(
                    self._executor,
                    lambda: self.service.next_page(
                        session_id=session_id,
                        cursor=cursor,
                        page_size=page_size,
                        want_trace=want_trace,
                    ),
                )
            elif path == "/v1/update":
                result = await loop.run_in_executor(
                    self._executor, lambda: self.service.update(document)
                )
            else:  # /v1/cancel
                session_id = document.get("session_id")
                if not isinstance(session_id, str):
                    return 400, {"error": "cancel needs a session_id"}
                if not self.service.cancel(session_id):
                    # Cancelling something that is not there is a 404, not a
                    # 200-with-false (and certainly not a 500): the session
                    # may have expired, finished, or never existed.
                    return 404, {
                        "error": (
                            f"no live session {session_id!r} "
                            "(expired, finished or never existed)"
                        ),
                        "code": "unknown_session",
                    }
                result = {"cancelled": True}
        except SessionExpired:
            return 404, {"error": "session expired or unknown (resume via cursor)"}
        except ServiceStaleCursorError as error:
            # The token is intact; the graph moved on.  409 + a machine
            # code so clients distinguish "re-run the query" from "your
            # request is malformed".
            return 409, {"error": str(error), "code": "stale_cursor"}
        except QueryError as error:  # includes ServiceCursorError
            return 400, {"error": str(error)}
        return 200, result
