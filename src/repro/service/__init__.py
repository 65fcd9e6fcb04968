"""Enumeration-as-a-service: hot graphs, session table, query front door.

This package turns the enumeration library into a long-lived system.  The
layering (bottom up; ``ARCHITECTURE.md`` has the full picture):

* **engine** — :class:`~repro.core.traversal.ReverseSearchEngine`, the
  explicit-state reverse-search stepper;
* **session** — :class:`~repro.core.session.EnumerationSession`,
  pagination + resumable cursors over one engine;
* **service** (this package) — everything a daemon needs on top:

  - :class:`~repro.service.registry.HotGraphRegistry` keeps graphs *hot*:
    load / prep-reduce once, keyed by graph source and
    prep fingerprint, LRU-bounded, with hit counters so tests (and the
    ``/v1/stats`` endpoint) can assert that a repeated query skipped the
    cold path;
  - :class:`~repro.service.sessions.SessionTable` owns the live sessions
    with TTL + capacity eviction — an evicted session is not lost, its
    last cursor token still resumes it;
  - :class:`~repro.service.query.QueryService` is the transport-agnostic
    front door: parameterized queries with budget clamps, result caching
    for repeated identical queries, pagination through sessions *or*
    self-contained service cursors;
  - :mod:`repro.service.http` serves it over async HTTP/JSON
    (``python -m repro.serve``), and the ``repro-mbp query`` CLI family
    is the other front end — both report the same
    :func:`~repro.service.status.status_block`.
"""

from .query import (
    Budgets,
    QueryError,
    QueryService,
    ServiceCursorError,
    ServiceStaleCursorError,
)
from .ratelimit import RateLimiter, limiter_from_env
from .registry import HotGraphRegistry
from .sessions import SessionExpired, SessionTable
from .status import status_block

__all__ = [
    "Budgets",
    "HotGraphRegistry",
    "QueryError",
    "QueryService",
    "RateLimiter",
    "ServiceCursorError",
    "ServiceStaleCursorError",
    "SessionExpired",
    "SessionTable",
    "limiter_from_env",
    "status_block",
]
