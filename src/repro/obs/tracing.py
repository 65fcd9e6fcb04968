"""Request-scoped tracing: trace ids and a phase tree of wall times.

A :class:`Trace` is minted at a service entry point (one ``trace_id`` per
request) and records a tree of :class:`Span` phases.  Each path records:

* a service query (``enumerate``, and ``open_session`` for its first
  page): ``parse → load → plan → traverse → serialize``, where ``load``
  resolves the graph through the registry (a file read when cold) and
  ``serialize`` also mints a page's cursor;
* a service page (``next_page``): ``traverse → serialize``, after a
  ``resume`` phase (graph load included) when it resumes from a cursor;
* a service update: ``parse → load → apply``.

The CLI records no phases of its own: ``repro-mbp enumerate --trace`` and
``repro-mbp query run --trace`` both trace the service query they run.

Instrumented code never holds the trace explicitly; it opens phases
through the module-level :func:`span` context manager, which resolves the
current thread's active trace (or does nothing when there is none — the
disabled path is one thread-local read).

The tree crosses the process boundary of the parallel engine by value,
not by reference: the coordinator passes the ``trace_id`` to its workers
through the existing shard-dispatch arguments, each worker records one
span per shard it ran, ships the serialized span dicts back inside its
final ``"done"`` message, and the coordinator grafts them under its own
active span (:meth:`Trace.attach`).  Wall-times therefore attribute
correctly even though the worker clocks never interleave with the
coordinator's.

Spans measure wall time with ``time.perf_counter`` and serialize as::

    {"name": "traverse", "elapsed_ms": 12.3, "children": [...]}

(``children`` omitted when empty).
"""

from __future__ import annotations

import secrets
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional


def new_trace_id() -> str:
    """A fresh 16-hex-character request id."""
    return secrets.token_hex(8)


class Span:
    """One timed phase; children are sub-phases or grafted worker spans."""

    __slots__ = ("name", "elapsed_ms", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.elapsed_ms: float = 0.0
        self.children: List[dict] = []

    def to_dict(self) -> dict:
        document: dict = {"name": self.name, "elapsed_ms": round(self.elapsed_ms, 3)}
        if self.children:
            document["children"] = self.children
        return document


class Trace:
    """The phase tree of one request.

    Not thread-safe by design: a trace belongs to the one thread that
    executes its request (the service's executor threads run a request
    start to finish).  Cross-process contributions arrive as serialized
    dicts via :meth:`attach`, called by the coordinator on that thread.
    """

    def __init__(self, name: str, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id if trace_id else new_trace_id()
        self.root = Span(name)
        self._stack: List[Span] = [self.root]
        self._started = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        current = Span(name)
        self._stack.append(current)
        started = time.perf_counter()
        try:
            yield current
        finally:
            current.elapsed_ms = (time.perf_counter() - started) * 1000.0
            self._stack.pop()
            self._stack[-1].children.append(current.to_dict())

    def attach(self, span_dict: Optional[dict]) -> None:
        """Graft an already-serialized span tree under the active span."""
        if span_dict:
            self._stack[-1].children.append(span_dict)

    def finish(self) -> None:
        self.root.elapsed_ms = (time.perf_counter() - self._started) * 1000.0

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "root": self.root.to_dict()}


_active = threading.local()


def current_trace() -> Optional[Trace]:
    """The thread's active trace, or ``None`` (tracing off / not requested)."""
    return getattr(_active, "trace", None)


@contextmanager
def trace(
    name: str, trace_id: Optional[str] = None, enabled: bool = True
) -> Iterator[Optional[Trace]]:
    """Activate a request trace for the calling thread's dynamic extent.

    ``enabled=False`` yields ``None`` and touches nothing — the caller
    keeps one code path for traced and untraced requests.  Nesting
    restores the outer trace on exit.
    """
    if not enabled:
        yield None
        return
    active = Trace(name, trace_id)
    previous = current_trace()
    _active.trace = active
    try:
        yield active
    finally:
        active.finish()
        _active.trace = previous


@contextmanager
def span(name: str) -> Iterator[None]:
    """Open a phase on the current trace; a no-op when none is active."""
    active = current_trace()
    if active is None:
        yield
        return
    with active.span(name):
        yield
