"""The live-session table: TTL + capacity bounded, eviction-tolerant.

A paginating client holds a ``session_id`` and pulls pages against the
same in-memory :class:`~repro.core.session.EnumerationSession` — the hot
path, one polynomial delay per solution.  Sessions are resources (a
parallel one owns a process pool), so the table bounds them two ways:

* **TTL** — a session untouched for ``ttl_seconds`` is evicted on the
  next sweep (sweeps piggyback on every table operation; an injectable
  ``clock`` keeps the tests instant);
* **capacity** — creating past ``capacity`` evicts the least recently
  used session first.

Eviction is deliberately *not* data loss: every page response carries the
session's cursor token, and :meth:`~repro.service.query.QueryService.next_page`
falls back to cursor resume when the id is gone.  The table therefore
closes evicted sessions eagerly — the cursor, not the object, is the
durable handle.

:meth:`SessionTable.counters` is the only count of session events:
``/v1/stats`` serves it and ``/v1/metrics`` renders it (see
:mod:`repro.service.status`).

Records carry a per-session lock: sessions are forward-only iterators and
not thread-safe, so concurrent pagination requests for the same id
serialize on it while distinct sessions proceed in parallel.  Closing an
evicted record honours the same lock — a TTL sweep or capacity eviction
must not tear a session down underneath a pager that is mid-batch on it.
The lock is an RLock because the pager itself removes (and thereby
closes) a record it still holds: ``QueryService._page`` drops exhausted
sessions from inside the record lock.  Lock ordering: the table lock is
never held while taking a record lock — evicted records are popped under
the table lock but closed only after it is released.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from ..core.session import EnumerationSession

#: Default idle lifetime of a session.
DEFAULT_TTL_SECONDS = 300.0

#: Default maximum number of concurrently live sessions.
DEFAULT_SESSION_CAPACITY = 64


class SessionExpired(KeyError):
    """The session id is unknown — expired, evicted, or never issued."""


class SessionRecord:
    """One live session plus the bookkeeping the table needs."""

    __slots__ = ("session_id", "session", "query", "last_used", "lock")

    def __init__(
        self,
        session_id: str,
        session: EnumerationSession,
        query: Optional[dict],
        now: float,
    ) -> None:
        self.session_id = session_id
        self.session = session
        self.query = query
        self.last_used = now
        # Reentrant: QueryService._page removes an exhausted record (which
        # closes it under this same lock) while still holding it.
        self.lock = threading.RLock()


class SessionTable:
    """TTL + LRU bounded registry of live enumeration sessions."""

    def __init__(
        self,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        capacity: int = DEFAULT_SESSION_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl_seconds <= 0:
            raise ValueError("session TTL must be positive")
        if capacity < 1:
            raise ValueError("session capacity must be positive")
        self.ttl_seconds = ttl_seconds
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.RLock()
        self._records: "OrderedDict[str, SessionRecord]" = OrderedDict()
        self.created = 0
        self.expired = 0
        self.evicted = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------ #
    def create(
        self, session: EnumerationSession, query: Optional[dict] = None
    ) -> SessionRecord:
        """Register a session; returns its record (id in ``session_id``).

        ``query`` is the normalized query document that opened the
        session — kept so a page response can re-embed it in a
        self-contained service cursor.
        """
        with self._lock:
            to_close = self._pop_stale_locked()
            session_id = secrets.token_urlsafe(16)
            record = SessionRecord(session_id, session, query, self._clock())
            self._records[session_id] = record
            self.created += 1
            while len(self._records) > self.capacity:
                _, lru = self._records.popitem(last=False)
                self.evicted += 1
                to_close.append(lru)
        # Outside the table lock: _close_quietly takes the record lock, and
        # a pager thread holding a record lock may be about to take the
        # table lock (remove) — closing inside would invert the order.
        for stale in to_close:
            self._close_quietly(stale)
        return record

    def get(self, session_id: str) -> SessionRecord:
        """The record for ``session_id``, touched (TTL + LRU refreshed).

        Raises :class:`SessionExpired` when the id is not live — the
        caller is expected to fall back to the cursor token.
        """
        with self._lock:
            to_close = self._pop_stale_locked()
            record = self._records.get(session_id)
            if record is not None:
                record.last_used = self._clock()
                self._records.move_to_end(session_id)
        for stale in to_close:
            self._close_quietly(stale)
        if record is None:
            raise SessionExpired(session_id)
        return record

    def remove(self, session_id: str) -> bool:
        """Drop (and close) one session; returns whether it was live."""
        with self._lock:
            record = self._records.pop(session_id, None)
        if record is None:
            return False
        self._close_quietly(record)
        return True

    def sweep(self) -> int:
        """Evict every session idle past the TTL; returns how many."""
        with self._lock:
            stale = self._pop_stale_locked()
        for record in stale:
            self._close_quietly(record)
        return len(stale)

    def close_all(self) -> None:
        with self._lock:
            records = list(self._records.values())
            self._records.clear()
        for record in records:
            self._close_quietly(record)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "sessions_live": len(self._records),
                "sessions_created": self.created,
                "sessions_expired": self.expired,
                "sessions_evicted": self.evicted,
            }

    # ------------------------------------------------------------------ #
    def _pop_stale_locked(self) -> List[SessionRecord]:
        """Unlink every TTL-expired record; the caller closes them later.

        Runs under the table lock but does **not** close: the close path
        needs each record's own lock, and taking record locks while
        holding the table lock deadlocks against pagers (who take them in
        the opposite order).
        """
        deadline = self._clock() - self.ttl_seconds
        stale = [
            session_id
            for session_id, record in self._records.items()
            if record.last_used <= deadline
        ]
        self.expired += len(stale)
        return [self._records.pop(session_id) for session_id in stale]

    @staticmethod
    def _close_quietly(record: SessionRecord) -> None:
        # Under the record lock: a pager mid-next_batch on this session
        # must finish its pull before the stream is torn down (closing a
        # generator another thread is iterating raises in both threads).
        with record.lock:
            try:
                record.session.close()
            except Exception:
                pass  # eviction must never fail the operation that triggered it
