"""Long-lived enumeration sessions with resumable cursors.

The reverse-search enumerator is polynomial-delay, which makes a paused
enumeration cheap to come back to: all the state the traversal needs is the
DFS frontier plus the visited set, and advancing from there costs one delay
per solution — not a re-enumeration.  :class:`EnumerationSession` packages
that into the unit the service layer (and any paginating caller) works
with:

* a session owns one :class:`~repro.core.traversal.ReverseSearchEngine`
  — graph, :class:`~repro.prep.plan.PrepPlan`,
  :class:`~repro.core.traversal.TraversalConfig` — and is the only thing
  that runs it; :meth:`next_batch` pulls the next ``n`` solutions;
* :meth:`cursor` captures a **serializable resume token** between batches,
  and :meth:`resume` reconstructs a session from the token against the
  same graph — the resumed stream is the exact suffix of the
  uninterrupted run (pinned by ``tests/test_session.py`` across job counts
  and prep modes);
* :meth:`stream` is the classic lazy full enumeration, which is how the
  one-shot front ends (``ITraversal`` / ``BTraversal`` /
  ``enumerate_mbps``) run: their ``run()`` is a fresh throwaway session
  per call.

Solver objectives
-----------------
When the config carries a non-trivial objective (``maximum`` / ``top-k``),
the engine still *yields* every observed candidate — those suspension
points are what budgets and cursors hang off — but the session interposes
:meth:`_solver_stream`: it drains the raw traversal (up to any budget
caps) and then emits :meth:`~repro.core.objective.Objective.results`, the
refined answer set, through the usual translation layer.  Solver cursors
carry those results as the incumbents next to the DFS frontier (resume
hands them to :meth:`~repro.core.objective.Objective.restore`), and
resume in one of two regimes:

* **interrupted mid-traversal** — a budget cap stopped the leg (the token
  still holds DFS frames, or records a parallel run as truncated).  The
  answers emitted so far were provisional, so the resumed leg finishes
  the traversal and re-emits the **full** refined result set, ignoring
  the token's ``emitted`` count (the answer may legitimately change as
  the resumed leg refines it).
* **traversal complete** — the leg drained and the cursor merely
  paginates the answer list.  The refined set is final and deterministic,
  so resume skips the ``emitted`` prefix exactly like an enumerate
  cursor.  This is what keeps cursor-only pagination loops terminating.

Cursor tokens
-------------
This module is the only one that knows the wire format.  A token is
``base64url(zlib(json))`` of a ``repro-cursor/3`` document, written by
:func:`encode_token` and read by :func:`decode_token`, which refuses a
document that inflates past :data:`MAX_DOCUMENT_BYTES` (the exact schema
is documented in ``ARCHITECTURE.md``).  A service cursor is the same
document plus the service's normalized ``query``, passed to
:meth:`EnumerationSession.cursor` and encoded once.  Every solution in a
token — frame, visited entry or incumbent — is a pair of lowercase hex
masks in the engine's *reduced* coordinate space.  Two cursor modes:

``frontier``
    Serial runs (resolved ``jobs <= 1``).  The token encodes the DFS
    frontier — the stack of ``[left, right, already_output, depth]``
    frames — plus the visited solutions and the statistics counters.
    Serial frames and visited entries never carry a Section 3.5
    exclusion (only shard workers inherit one, and workers mint no
    cursors), and the stats leave out the wall clock, so equal frontiers
    encode to equal tokens.  Resume rebuilds the stack with regenerated
    children iterators; replaying a frame's candidate scan skips
    everything the restored visited set already holds, so the stream
    continues exactly where it stopped at the cost of re-scoring the
    frontier frames' earlier candidates once.  A resumed leg times itself:
    its ``elapsed_seconds`` starts at zero.

``offset``
    Parallel runs (resolved ``jobs > 1``), whose frontier lives across a
    process pool.  The token records how many solutions were emitted;
    resume re-runs the (deterministic, canonically sorted) enumeration and
    skips that many.  Correct for any job count above 1, but resumption
    costs a re-enumeration of the prefix — the hot-graph registry
    (:mod:`repro.service`) at least makes it skip graph load and prep.

Tokens carry a fingerprint of the reduced graph, ``k`` and every
order-relevant configuration knob; resuming against a different graph or
an incompatible configuration raises :class:`CursorError` instead of
silently enumerating garbage.  Budget knobs (``max_results`` /
``time_limit`` / ``jobs``) are deliberately excluded — a service may
legitimately re-issue a resumed query with fresh budgets.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
import zlib
from dataclasses import asdict, fields
from itertools import islice
from typing import Iterator, List, Optional, Union

from ..obs import publish_run_stats
from .biplex import Biplex
from .enum_almost_sat import DEFAULT_CONFIG
from .traversal import ReverseSearchEngine, TraversalConfig, TraversalStats

#: Schema tag of the cursor token document.  ``/3`` writes solutions as
#: hex mask pairs, drops the frame exclusions and the wall clock, and
#: carries the service's query in the same document; ``/2`` tokens and
#: ``repro-service-cursor/1`` envelopes are refused rather than resumed
#: with a silently-different meaning.
CURSOR_SCHEMA = "repro-cursor/3"

#: The most bytes :func:`decode_token` inflates a token to (16 MiB).  A
#: serial document costs ~27 bytes per visited solution (160 KB at 6,000
#: emitted on the opsahl stand-in), so this admits sessions of about
#: 600,000 visited solutions; a token that inflates further is refused
#: before it is held in memory.
MAX_DOCUMENT_BYTES = 16 * 2**20

#: Output granularity of the counting pass in :func:`_inflate`.
_INFLATE_CHUNK = 64 * 2**10


class CursorError(ValueError):
    """A cursor token is malformed or does not match the resume target."""


class StaleCursorError(CursorError):
    """The graph mutated (epoch changed) after the cursor was issued.

    Distinguished from the generic mismatch so the service layer can map
    it to a precise ``stale_cursor`` error (HTTP 409) instead of a generic
    bad-cursor 400: the client's token was valid, the world moved.
    """


def encode_token(document: dict) -> str:
    """``base64url(zlib(json))`` of a cursor document."""
    raw = json.dumps(document, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return base64.urlsafe_b64encode(zlib.compress(raw, 6)).decode("ascii")


def _inflate(compressed: bytes) -> bytes:
    """Decompress a token body of at most :data:`MAX_DOCUMENT_BYTES`.

    A first pass only counts the output, one chunk at a time, so a
    compressed bomb is refused while holding a single chunk; a body
    within the cap is then inflated in one call.
    """
    inflater = zlib.decompressobj()
    size = 0
    pending = compressed
    while not inflater.eof:
        chunk = inflater.decompress(pending, _INFLATE_CHUNK)
        pending = inflater.unconsumed_tail
        if not chunk and not pending:
            raise zlib.error("incomplete or truncated stream")
        size += len(chunk)
        if size > MAX_DOCUMENT_BYTES:
            raise CursorError(
                f"cursor token inflates past the {MAX_DOCUMENT_BYTES}-byte document limit"
            )
    return zlib.decompress(compressed)


def decode_token(token: str) -> dict:
    """The document of a token (either kind), checked for size and schema."""
    try:
        document = json.loads(_inflate(base64.urlsafe_b64decode(token.encode("ascii"))))
    except CursorError:
        raise
    except Exception as error:
        raise CursorError(f"malformed cursor token: {error}") from None
    schema = document.get("schema") if isinstance(document, dict) else document
    if schema != CURSOR_SCHEMA:
        raise CursorError(f"unsupported cursor schema {schema!r}; expected {CURSOR_SCHEMA}")
    return document


#: TraversalStats fields a token carries, with their value types: every
#: counter (a non-negative int) and flag (a bool), but not the wall clock.
_STATS_FIELDS = {
    field.name: type(field.default)
    for field in fields(TraversalStats)
    if field.name != "elapsed_seconds"
}

_HEX_DIGITS = re.compile(r"[0-9a-f]+")


def _hex_pairs(solutions) -> list:
    """Solutions in their token form, ``[left hex, right hex]`` each."""
    return [[f"{s.left_mask:x}", f"{s.right_mask:x}"] for s in solutions]


class _TokenDecoder:
    """Checked decoding of the client-held fields of a cursor token.

    A token is unsigned and held by the client, so nothing in it is
    trusted.  A mask must be a lowercase hex string of at most one digit
    per four vertices of its side, naming only vertices of the engine's
    reduced graph: ``int(text, 16)`` alone would also take signs,
    whitespace, underscores and a ``0x`` prefix, and an unbounded string
    would build a mask as long as itself.  Counts must be non-negative
    ints, flags bools, and stats must name
    :class:`~repro.core.traversal.TraversalStats` counters.  Every defect
    raises :class:`CursorError`, which the service answers with 400.
    """

    def __init__(self, graph) -> None:
        self._n_left = graph.n_left
        self._n_right = graph.n_right

    @staticmethod
    def count(value, name: str) -> int:
        if type(value) is not int or value < 0:
            raise CursorError(f"cursor field {name!r} must be a non-negative integer")
        return value

    @staticmethod
    def _mask(text, n: int, side: str) -> int:
        if type(text) is not str or len(text) > max(1, -(-n // 4)):
            raise CursorError(f"cursor {side} mask names a vertex not in the graph")
        if not _HEX_DIGITS.fullmatch(text):
            raise CursorError(f"cursor {side} mask must be lowercase hex digits")
        mask = int(text, 16)
        if mask >> n:
            raise CursorError(f"cursor {side} mask names a vertex not in the graph")
        return mask

    def solution(self, pair) -> Biplex:
        """One solution from its ``[left mask, right mask]`` form."""
        if not isinstance(pair, list) or len(pair) != 2:
            raise CursorError("a cursor solution must be a [left mask, right mask] pair")
        return Biplex(
            self._mask(pair[0], self._n_left, "left"),
            self._mask(pair[1], self._n_right, "right"),
        )

    def frontier(self, frontier):
        """``(frames, visited, stats, incumbents)`` of a frontier payload."""
        if not isinstance(frontier, dict):
            raise CursorError("malformed cursor frontier")
        frames = frontier.get("frames")
        visited = frontier.get("visited")
        stats = frontier.get("stats")
        incumbents = frontier.get("incumbents")
        if not all(isinstance(part, list) for part in (frames, visited, incumbents)):
            raise CursorError("a cursor frontier needs frame, visited and incumbent lists")
        if not isinstance(stats, dict) or not all(
            type(value) is _STATS_FIELDS.get(name) and value >= 0
            for name, value in stats.items()
        ):
            raise CursorError(
                "cursor stats must map TraversalStats counters to non-negative "
                "integers and flags to booleans"
            )
        decoded = []
        for frame in frames:
            if not isinstance(frame, list) or len(frame) != 4 or type(frame[2]) is not bool:
                raise CursorError(
                    "a cursor frame must be [left mask, right mask, already_output, depth]"
                )
            decoded.append(
                (self.solution(frame[:2]), frame[2], self.count(frame[3], "depth"))
            )
        return (
            decoded,
            [self.solution(pair) for pair in visited],
            TraversalStats(**stats),
            [self.solution(pair) for pair in incumbents],
        )


class EnumerationSession:
    """One pausable enumeration over one prepared graph.

    Parameters
    ----------
    graph:
        Input bipartite graph.  Ignored when ``prep_plan`` is given — the
        plan's graph is already reduced.
    k:
        Biplex parameter.
    config:
        Full :class:`~repro.core.traversal.TraversalConfig`; defaults to
        iTraversal's.  The resolved ``jobs`` decide the cursor mode (see
        the module docstring).
    prep_plan:
        Optional precomputed :class:`~repro.prep.plan.PrepPlan` — the
        hot-graph registry's fast path (skip the reduction).

    A session is a forward-only stream: :meth:`next_batch` and
    :meth:`stream` share one underlying iterator, and a consumed solution
    is never produced again.  Sessions are not thread-safe; the service
    layer serializes access per session.
    """

    def __init__(
        self,
        graph,
        k: int,
        config: Optional[TraversalConfig] = None,
        prep_plan=None,
        _engine: Optional[ReverseSearchEngine] = None,
    ) -> None:
        if _engine is not None:
            self.engine = _engine
        else:
            self.engine = ReverseSearchEngine(graph, k, config, prep_plan=prep_plan)
        from ..parallel import resolve_jobs

        self._jobs = resolve_jobs(self.engine.config.jobs)
        self._mode = "offset" if self._jobs > 1 else "frontier"
        self._emitted = 0
        self._exhausted = False
        self._source: Optional[Iterator[Biplex]] = None
        self._fingerprint: Optional[str] = None

    @classmethod
    def from_engine(cls, engine: ReverseSearchEngine) -> "EnumerationSession":
        """Wrap an existing engine (the one-shot front ends' path)."""
        return cls(None, engine.k, _engine=engine)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        return self.engine.k

    @property
    def config(self) -> TraversalConfig:
        return self.engine.config

    @property
    def stats(self) -> TraversalStats:
        """Counters of the enumeration so far (live object)."""
        return self.engine.stats

    @property
    def prep(self):
        """The :class:`~repro.prep.plan.PrepPlan` the session runs on."""
        return self.engine.prep_plan

    @property
    def mode(self) -> str:
        """``"frontier"`` (serial, true frontier cursors) or ``"offset"``."""
        return self._mode

    @property
    def emitted(self) -> int:
        """Number of solutions handed to the consumer so far."""
        return self._emitted

    @property
    def exhausted(self) -> bool:
        """Whether the stream is known to have ended.

        Only raised once the end was *observed* (a short batch or a
        completed :meth:`stream`); a session whose final solution was the
        last one of a full batch reports ``False`` until the next pull.
        """
        return self._exhausted

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    # The generators below are static and take the engine (or what they
    # need of it): the session holds its source, so a generator frame that
    # held the session would make a reference cycle, and a session dropped
    # mid-stream would publish its run only when the cyclic GC collects it.
    @staticmethod
    def _translated(source: Iterator[Biplex], engine: ReverseSearchEngine) -> Iterator[Biplex]:
        plan = engine.prep_plan
        translate = None if plan.is_identity_map else plan.translate
        try:
            for solution in source:
                yield solution if translate is None else translate(solution)
        finally:
            # Propagate closure eagerly: the session keeps a reference to
            # this generator, so without the explicit close the engine
            # generator underneath would only finalize (and stamp its
            # stats) at garbage-collection time.
            source.close()
            # Stats are final once the source is closed; this is the one
            # choke point every front end (library run(), CLI, service)
            # streams through, so the metrics publication lives here (its
            # import is module-level: a session left open runs this at exit).
            publish_run_stats(engine.stats)

    @staticmethod
    def _solver_stream(raw: Iterator[Biplex], objective) -> Iterator[Biplex]:
        """Drain a solver-mode traversal, then emit the refined answer set.

        The raw stream stops on its own at exhaustion *or* at a budget cap
        (``max_results`` / ``time_limit``); either way what comes out of
        the session is the objective's current results — complete in the
        first case, best-so-far in the second (a cursor can then resume
        the refinement).
        """
        try:
            for _ in raw:
                pass
            for solution in objective.results():
                yield solution
        finally:
            raw.close()

    def _ensure_source(self) -> Iterator[Biplex]:
        if self._source is None:
            if self._jobs > 1:
                from ..parallel.engine import run_parallel

                raw: Iterator[Biplex] = run_parallel(self.engine)
            else:
                raw = self.engine._run_serial()
            if not self.engine.objective.trivial:
                raw = self._solver_stream(raw, self.engine.objective)
            self._source = self._translated(raw, self.engine)
        return self._source

    def next_batch(self, n: int) -> List[Biplex]:
        """Advance the enumeration by up to ``n`` solutions.

        Returns the next page (original-graph vertex ids).  A short page
        means the enumeration is exhausted (and sets :attr:`exhausted`).
        """
        if n < 1:
            raise ValueError("batch size must be a positive integer")
        batch = list(islice(self._ensure_source(), n))
        self._emitted += len(batch)
        if len(batch) < n:
            self._exhausted = True
        return batch

    def stream(self) -> Iterator[Biplex]:
        """Lazily yield every remaining solution (what front ends' ``run()`` streams).

        Closing the stream (early ``break`` + GC, or an explicit
        ``close()``) closes the session's source with it, so the engine's
        DFS loop stamps its stats at once.
        """
        source = self._ensure_source()
        try:
            for solution in source:
                self._emitted += 1
                yield solution
        except GeneratorExit:
            source.close()
            raise
        self._exhausted = True

    def close(self) -> None:
        """Release the underlying stream (stops a parallel pool, if any)."""
        if self._source is not None:
            self._source.close()

    # ------------------------------------------------------------------ #
    # Cursors
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Fingerprint of the prepared graph + order-relevant configuration.

        Hashes the engine's *reduced* adjacency (deterministic for a given
        input graph + thresholds + prep mode), ``k``,
        the traversal-shaping config fields and the plan's candidate
        orderings.  See the module docstring for what is deliberately
        excluded (budgets).
        """
        if self._fingerprint is not None:
            return self._fingerprint
        engine = self.engine
        graph = engine.graph
        config = engine.config
        plan = engine.prep_plan
        digest = hashlib.sha256()
        digest.update(f"{engine.k}|{graph.n_left}|{graph.n_right}|".encode())
        for v in range(graph.n_left):
            digest.update(f"{graph.adj_left_mask(v):x};".encode())
        signature = (
            config.left_anchored,
            config.right_shrinking,
            config.exclusion,
            config.initial_solution,
            config.theta_left,
            config.theta_right,
            config.output_order,
            config.local_enumeration,
            config.prep,
            config.objective,
            config.top,
            # The EnumAlmostSat levels every engine runs (L2.0+R2.0); still
            # hashed so that tokens minted while they were a config field
            # keep their fingerprint.
            asdict(DEFAULT_CONFIG),
            plan.left_order,
            plan.right_order,
            # The mutation epoch the plan was prepared at: a cursor from
            # before an edge update must not resume against the mutated
            # graph (resume() additionally checks the epoch *first* so the
            # failure is reported as stale_cursor, not a generic mismatch).
            plan.epoch,
        )
        digest.update(repr(signature).encode())
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def cursor(self, query: Optional[dict] = None) -> str:
        """Serialize the current position as a resume token.

        Call between batches (a session is always between batches from the
        caller's perspective — the engine suspends at a resume-consistent
        yield).  The token is self-contained: everything needed to continue
        except the graph itself, which :meth:`resume` takes again.  A
        ``query`` document rides along in the same token (the service's
        normalized query); :meth:`resume` ignores it.
        """
        stats = self.engine.stats
        document = {
            "schema": CURSOR_SCHEMA,
            "mode": self._mode,
            "fingerprint": self.fingerprint(),
            "epoch": self.engine.prep_plan.epoch,
            "emitted": self._emitted,
            # A budget-capped run that drained its stream is *finished*
            # from this session's point of view (`exhausted` frees service
            # sessions) but not from the cursor's: the traversal stopped at
            # a cap, so the token must stay resumable for the remainder.
            "exhausted": self._exhausted and not stats.truncated,
            "truncated": bool(stats.truncated),
        }
        if query is not None:
            document["query"] = query
        if self._mode == "frontier":
            state = self.engine.frontier_state() if self._source is not None else None
            if state is None:
                document["frontier"] = None
            else:
                document["frontier"] = {
                    "frames": [
                        [f"{s.left_mask:x}", f"{s.right_mask:x}", already_output, depth]
                        for s, already_output, depth in state["frames"]
                    ],
                    "visited": _hex_pairs(state["visited"]),
                    "stats": {name: getattr(state["stats"], name) for name in _STATS_FIELDS},
                    "incumbents": _hex_pairs(self.engine.objective.results()),
                }
        return encode_token(document)

    @classmethod
    def resume(
        cls,
        graph,
        k: int,
        cursor: Union[str, dict],
        config: Optional[TraversalConfig] = None,
        prep_plan=None,
    ) -> "EnumerationSession":
        """Reconstruct a session from a cursor token.

        ``cursor`` is a token string or the document :func:`decode_token`
        made of one.  ``graph`` / ``k`` / ``config`` must describe the same
        enumeration the cursor was captured from (validated via the
        fingerprint); budget knobs may differ.  For ``offset`` cursors
        the emitted prefix is skipped eagerly here — the call returns once
        the stream is positioned at the suffix.
        """
        data = cursor if isinstance(cursor, dict) else decode_token(cursor)
        session = cls(graph, k, config, prep_plan=prep_plan)
        decoder = _TokenDecoder(session.engine.graph)
        token_epoch = decoder.count(data.get("epoch", 0), "epoch")
        emitted = decoder.count(data.get("emitted", 0), "emitted")
        plan_epoch = session.engine.prep_plan.epoch
        if token_epoch != plan_epoch:
            # Checked before the fingerprint so a mutated graph reports the
            # precise condition instead of a generic mismatch.
            raise StaleCursorError(
                "stale_cursor: the graph was mutated after this cursor was "
                f"issued (cursor epoch {token_epoch}, graph epoch "
                f"{plan_epoch}); re-run the query to get fresh results"
            )
        if data.get("fingerprint") != session.fingerprint():
            raise CursorError(
                "cursor does not match this graph/configuration "
                "(different graph, k, thresholds, prep or traversal variant)"
            )
        mode = data.get("mode")
        if mode != session._mode:
            raise CursorError(
                f"cursor was captured from a {mode!r}-mode session but this "
                f"configuration resolves to {session._mode!r} (jobs mismatch); "
                "resume with a matching jobs setting"
            )
        solver = not session.engine.objective.trivial
        if data.get("exhausted"):
            session._emitted = emitted
            session._exhausted = True
            session._source = (solution for solution in ())  # closable; no run to publish
            return session
        if mode == "offset":
            if solver and data.get("truncated"):
                # The capped leg's partial answers need not be a prefix of
                # the re-run's refined set; re-emit it in full (see the
                # module docstring).
                return session
            source = session._ensure_source()
            session._emitted = sum(1 for _ in islice(source, emitted))
            if session._emitted < emitted:
                session._exhausted = True
            return session
        frontier = data.get("frontier")
        if frontier is None:
            return session  # captured before the first batch: fresh start
        frames, visited, stats, incumbents = decoder.frontier(frontier)
        session.engine.objective.restore(incumbents)
        raw = session.engine.resume_serial(frames, visited, stats)
        if solver:
            raw = session._solver_stream(raw, session.engine.objective)
        session._source = session._translated(raw, session.engine)
        if solver and frames:
            # Interrupted mid-traversal: re-emit the full refined set once
            # the resumed leg settles (see the module docstring); the
            # token's emitted count does not carry over.
            session._emitted = 0
        elif solver:
            # Traversal complete — the cursor paginates a final answer
            # list; skip the prefix the client already consumed.
            session._emitted = sum(1 for _ in islice(session._source, emitted))
            if session._emitted < emitted:
                session._exhausted = True
        else:
            session._emitted = emitted
        return session
