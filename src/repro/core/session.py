"""Long-lived enumeration sessions with resumable cursors.

The reverse-search enumerator is polynomial-delay, which makes a paused
enumeration cheap to come back to: all the state the traversal needs is the
DFS frontier plus the visited map, and advancing from there costs one delay
per solution — not a re-enumeration.  :class:`EnumerationSession` packages
that into the unit the service layer (and any paginating caller) works
with:

* a session owns one :class:`~repro.core.traversal.ReverseSearchEngine`
  — graph, :class:`~repro.prep.plan.PrepPlan`,
  :class:`~repro.core.traversal.TraversalConfig` — and exposes
  :meth:`next_batch` to pull the next ``n`` solutions;
* :meth:`cursor` captures a **serializable resume token** between batches,
  and :meth:`resume` reconstructs a session from the token against the
  same graph — the resumed stream is the exact suffix of the
  uninterrupted run (pinned by ``tests/test_session.py`` across job counts
  and prep modes);
* :meth:`stream` is the classic lazy full enumeration, which is how the
  one-shot front ends (``ITraversal`` / ``BTraversal`` /
  ``LargeMBPEnumerator`` / ``enumerate_mbps``) now run: their ``run()`` is
  a fresh throwaway session per call, so their public APIs are unchanged.

Solver objectives
-----------------
When the config carries a non-trivial objective (``maximum`` / ``top-k``),
the engine still *yields* every observed candidate — those suspension
points are what budgets and cursors hang off — but the session interposes
:meth:`_solver_stream`: it drains the raw traversal (up to any budget
caps) and then emits :meth:`~repro.core.objective.Objective.results`, the
refined answer set, through the usual translation layer.  Solver cursors
carry the objective's incumbent state next to the DFS frontier, and
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
A token is ``base64url(zlib(json))`` of a ``repro-cursor/2`` document (the
exact schema is documented in ``ARCHITECTURE.md``).  Two cursor modes:

``frontier``
    Serial runs (resolved ``jobs <= 1``).  The token encodes the DFS
    frontier — the stack of ``(solution, exclusion, already_output,
    depth)`` frames — plus the visited solutions and the statistics
    counters, all in the engine's *reduced* coordinate space.  Resume
    rebuilds the stack with regenerated children iterators; replaying a
    frame's candidate scan skips everything the restored visited map
    already holds, so the stream continues exactly where it stopped at the
    cost of re-scoring the frontier frames' earlier candidates once.

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
import zlib
from dataclasses import asdict, fields
from itertools import islice
from typing import Iterator, List, Optional

from ..graph.protocol import iter_bits
from ..obs import publish_run_stats
from .biplex import Biplex
from .traversal import ReverseSearchEngine, TraversalConfig, TraversalStats

#: Schema tag of the cursor token document.  ``/2`` added the objective
#: (mode + top) to the fingerprint and the incumbent state to frontier
#: payloads; ``/1`` tokens are rejected rather than resumed with a
#: silently-different meaning.
CURSOR_SCHEMA = "repro-cursor/2"


class CursorError(ValueError):
    """A cursor token is malformed or does not match the resume target."""


class StaleCursorError(CursorError):
    """The graph mutated (epoch changed) after the cursor was issued.

    Distinguished from the generic mismatch so the service layer can map
    it to a precise ``stale_cursor`` error (HTTP 409) instead of a generic
    bad-cursor 400: the client's token was valid, the world moved.
    """


def _encode_token(payload: dict) -> str:
    raw = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return base64.urlsafe_b64encode(zlib.compress(raw, 6)).decode("ascii")


def _decode_token(token: str) -> dict:
    try:
        raw = zlib.decompress(base64.urlsafe_b64decode(token.encode("ascii")))
        data = json.loads(raw)
    except Exception as error:
        raise CursorError(f"malformed cursor token: {error}") from None
    if not isinstance(data, dict) or data.get("schema") != CURSOR_SCHEMA:
        raise CursorError(
            f"unsupported cursor schema {data.get('schema') if isinstance(data, dict) else data!r}; "
            f"expected {CURSOR_SCHEMA}"
        )
    return data


_STATS_FIELDS = frozenset(field.name for field in fields(TraversalStats))


class _TokenDecoder:
    """Checked decoding of the client-held fields of a cursor token.

    A token is unsigned and held by the client, so nothing in it is
    trusted.  Vertex ids must be ints in the engine's reduced graph: an
    unchecked id would index past the adjacency, or pack into a mask as
    large as the id itself.  Counts must be non-negative ints, and stats
    must name :class:`~repro.core.traversal.TraversalStats` fields.  Every
    defect raises :class:`CursorError`, which the service answers with 400.
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
    def _mask(ids, n: int, side: str) -> int:
        if not isinstance(ids, list):
            raise CursorError(f"cursor {side} vertex ids must be a list")
        mask = 0
        for vertex in ids:
            if type(vertex) is not int or not 0 <= vertex < n:
                raise CursorError(f"cursor {side} vertex id {vertex!r} is not in the graph")
            mask |= 1 << vertex
        return mask

    def solution(self, pair) -> Biplex:
        """One solution from its :meth:`Biplex.to_lists` form."""
        if not isinstance(pair, list) or len(pair) != 2:
            raise CursorError("a cursor solution must be a [left ids, right ids] pair")
        return Biplex(
            self._mask(pair[0], self._n_left, "left"),
            self._mask(pair[1], self._n_right, "right"),
        )

    def frontier(self, frontier):
        """``(frames, visited, stats, objective state)`` of a frontier payload."""
        if not isinstance(frontier, dict):
            raise CursorError("malformed cursor frontier")
        frames = frontier.get("frames")
        visited = frontier.get("visited")
        stats = frontier.get("stats")
        objective = frontier.get("objective")
        if not (isinstance(frames, list) and isinstance(visited, list)):
            raise CursorError("a cursor frontier needs frame and visited lists")
        if not isinstance(stats, dict) or not all(
            name in _STATS_FIELDS and type(value) in (int, float, bool)
            for name, value in stats.items()
        ):
            raise CursorError("cursor stats must map TraversalStats fields to numbers")
        if objective is not None and not (
            isinstance(objective, dict)
            and all(value is None or isinstance(value, list) for value in objective.values())
        ):
            raise CursorError("malformed cursor objective state")
        decoded = []
        for frame in frames:
            if not isinstance(frame, list) or len(frame) != 4:
                raise CursorError(
                    "a cursor frame must be [solution, exclusion, already_output, depth]"
                )
            solution, exclusion, already_output, depth = frame
            decoded.append(
                (
                    self.solution(solution),
                    self._mask(exclusion, self._n_left, "exclusion"),
                    bool(already_output),
                    self.count(depth, "depth"),
                )
            )
        return (
            decoded,
            {self.solution(pair): 0 for pair in visited},
            TraversalStats(**stats),
            objective,
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
        self._started = False
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
    def _translated(self, source: Iterator[Biplex]) -> Iterator[Biplex]:
        plan = self.engine.prep_plan
        translate = None if plan.is_identity_map else plan.translate
        try:
            for solution in source:
                self._emitted += 1
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
            publish_run_stats(self.engine.stats)

    def _solver_stream(self, raw: Iterator[Biplex]) -> Iterator[Biplex]:
        """Drain a solver-mode traversal, then emit the refined answer set.

        The raw stream stops on its own at exhaustion *or* at a budget cap
        (``max_results`` / ``time_limit``); either way what comes out of
        the session is the objective's current results — complete in the
        first case, best-so-far in the second (a cursor can then resume
        the refinement).
        """
        objective = self.engine.objective
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
                raw = self._solver_stream(raw)
            self._source = self._translated(raw)
            self._started = True
        return self._source

    def next_batch(self, n: int) -> List[Biplex]:
        """Advance the enumeration by up to ``n`` solutions.

        Returns the next page (original-graph vertex ids).  A short page
        means the enumeration is exhausted (and sets :attr:`exhausted`).
        """
        if n < 1:
            raise ValueError("batch size must be a positive integer")
        batch = list(islice(self._ensure_source(), n))
        if len(batch) < n:
            self._exhausted = True
        return batch

    def stream(self) -> Iterator[Biplex]:
        """Lazily yield every remaining solution (the classic ``run()``).

        Closing the stream (early ``break`` + GC, or an explicit
        ``close()``) closes the session's source with it, so engine stats
        finalize exactly as a directly-abandoned ``run()`` always did.
        """
        source = self._ensure_source()
        try:
            for solution in source:
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
            digest.update(",".join(map(str, iter_bits(graph.adj_left_mask(v)))).encode())
            digest.update(b";")
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
            asdict(config.enum_config),
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

    def cursor(self) -> str:
        """Serialize the current position as a resume token.

        Call between batches (a session is always between batches from the
        caller's perspective — the engine suspends at a resume-consistent
        yield).  The token is self-contained: everything needed to continue
        except the graph itself, which :meth:`resume` takes again.
        """
        payload = {
            "schema": CURSOR_SCHEMA,
            "mode": self._mode,
            "fingerprint": self.fingerprint(),
            "epoch": self.engine.prep_plan.epoch,
            "emitted": self._emitted,
            # A budget-capped run that drained its stream is *finished*
            # from this session's point of view (`exhausted` frees service
            # sessions) but not from the cursor's: the traversal stopped at
            # a cap, so the token must stay resumable for the remainder.
            "exhausted": self._exhausted and not self.engine.stats.truncated,
            "truncated": bool(self.engine.stats.truncated),
        }
        if self._mode == "frontier":
            state = self.engine.frontier_state() if self._started else None
            if state is None:
                payload["frontier"] = None
            else:
                # Serial visited/exclusion invariant: every stored
                # exclusion mask is 0 (inheritance is a shard-worker
                # discipline), so the visited map serializes as bare
                # solutions.  Frame exclusions are kept per frame, as
                # ascending id lists — cheap, and robust should a future
                # discipline carry them.
                payload["frontier"] = {
                    "frames": [
                        [
                            solution.to_lists(),
                            list(iter_bits(exclusion)),
                            bool(already_output),
                            depth,
                        ]
                        for solution, exclusion, already_output, depth in state["frames"]
                    ],
                    "visited": [solution.to_lists() for solution in state["visited"]],
                    "stats": asdict(state["stats"]),
                    "objective": self.engine.objective.state(),
                }
        return _encode_token(payload)

    @classmethod
    def resume(
        cls,
        graph,
        k: int,
        cursor: str,
        config: Optional[TraversalConfig] = None,
        prep_plan=None,
    ) -> "EnumerationSession":
        """Reconstruct a session from a cursor token.

        ``graph`` / ``k`` / ``config`` must describe the same enumeration
        the cursor was captured from (validated via the fingerprint);
        budget knobs may differ.  For ``offset`` cursors
        the emitted prefix is skipped eagerly here — the call returns once
        the stream is positioned at the suffix.
        """
        data = _decode_token(cursor)
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
            session._source = iter(())
            session._started = True
            return session
        if mode == "offset":
            if solver and data.get("truncated"):
                # The capped leg's partial answers need not be a prefix of
                # the re-run's refined set; re-emit it in full (see the
                # module docstring).
                return session
            source = session._ensure_source()
            consumed = sum(1 for _ in islice(source, emitted))
            if consumed < emitted:
                session._exhausted = True
            return session
        frontier = data.get("frontier")
        if frontier is None:
            return session  # captured before the first batch: fresh start
        frames, visited, stats, objective_state = decoder.frontier(frontier)
        if solver:
            session.engine.objective.load_state(objective_state, decoder.solution)
        raw = session.engine.resume_serial(frames, visited, stats)
        if solver:
            raw = session._solver_stream(raw)
        session._source = session._translated(raw)
        session._started = True
        if solver and frames:
            # Interrupted mid-traversal: re-emit the full refined set once
            # the resumed leg settles (see the module docstring); the
            # token's emitted count does not carry over.
            session._emitted = 0
        elif solver:
            # Traversal complete — the cursor paginates a final answer
            # list; skip the prefix the client already consumed.
            consumed = sum(1 for _ in islice(session._source, emitted))
            if consumed < emitted:
                session._exhausted = True
        else:
            session._emitted = emitted
        return session
