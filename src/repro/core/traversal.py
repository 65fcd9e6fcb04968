"""The reverse-search traversal engine shared by bTraversal and iTraversal.

Both algorithms are depth-first searches over an implicit *solution graph*
whose nodes are maximal k-biplexes (solutions) and whose links encode "the
ThreeStep procedure can find solution ``H'`` from solution ``H``"
(Section 3.1).  The engine below implements the DFS with an explicit stack
(the recursion depth equals the number of solutions, which easily exceeds
CPython's recursion limit).  The paper's four traversals — bTraversal,
iTraversal-ES-RS, iTraversal-ES and iTraversal — are the four rows of
:data:`VARIANTS`, and large-MBP pruning and the solver objectives are
further :class:`TraversalConfig` fields, so every algorithm of the
evaluation is an instance of the same code path.

The per-run counters gathered in :class:`TraversalStats` are exactly the
quantities the evaluation section reports: number of solutions, number of
solution-graph links generated, number of EnumAlmostSat calls, wall-clock
time and whether a limit was hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..graph.bipartite import BipartiteGraph
# ``as_backend`` is an identity kept importable here: benchmark tracers wrap
# it by module attribute.
from ..graph.protocol import as_backend, iter_bits, mask_of  # noqa: F401
from ..prep import prepare, resolve_prep
from .biplex import (
    Biplex,
    arbitrary_initial_solution,
    can_add_right_masked,
    extend_to_maximal,
    initial_solution_left_anchored,
)
from .enum_almost_sat import (
    LocalSolutionTable,
    enum_local_solutions,
    enum_local_solutions_inflation,
)
from .objective import OBJECTIVES, make_objective, resolve_objective


#: The paper's four traversals (Sections 3.2–3.5, Fig. 11), each a name for
#: ``(left_anchored, right_shrinking, exclusion)``.  Right-shrinking and
#: exclusion occur only with left-anchoring, so every candidate they act on
#: is a left vertex; and a left-anchored traversal reaches every solution
#: only from ``H0 = (L0, R)``, so the table also fixes the initial solution.
VARIANTS = {
    "full": (True, True, True),  # iTraversal
    "no-exclusion": (True, True, False),  # iTraversal-ES
    "left-anchored-only": (True, False, False),  # iTraversal-ES-RS
    "btraversal": (False, False, False),  # bTraversal
}


@dataclass
class TraversalConfig:
    """Configuration of the reverse-search traversal.

    The defaults correspond to the full iTraversal algorithm (Algorithm 2
    plus the exclusion strategy).

    Attributes
    ----------
    variant:
        Which of the paper's traversals to run, a key of :data:`VARIANTS`:
        ``"full"`` (iTraversal, the default), ``"no-exclusion"``
        (iTraversal-ES), ``"left-anchored-only"`` (iTraversal-ES-RS) or
        ``"btraversal"``.  The table row is read through four properties:

        * ``left_anchored`` — only form almost-satisfying graphs with
          left-side vertices (Section 3.3); otherwise both sides are
          candidates.
        * ``right_shrinking`` — prune local solutions that can be extended
          with a right vertex of ``G`` (Section 3.4) and extend local
          solutions with left-side vertices only.
        * ``exclusion`` — apply the exclusion strategy (Section 3.5): while
          expanding a solution, prune links towards children containing an
          anchor that was already processed *in this expansion* (such
          children are generated by the earlier anchor's almost-satisfying
          graph, the paper's sibling-coverage argument).  Unlike the
          paper's presentation, serial runs do **not inherit** the sets
          along traversal paths: inherited sets interact unsoundly with
          visited-set deduplication — a solution first reached through a
          link carrying a large set explores an over-pruned subtree, and
          the sound repair (re-exploring whenever a later link shrinks the
          set; the machinery in ``_children`` implements it) re-traverses
          subtrees often enough to cost more than the inherited pruning
          saves on common left-heavy inputs.  The per-expansion form keeps
          the bulk of the pruning (most duplicate links are sibling links)
          at zero re-exploration cost.  Parallel-shard workers *do* inherit
          the prefixes — there the inheritance is what keeps shards
          disjoint, the repair rule restores completeness, and each shard
          is small enough that re-exploration stays cheap (see
          :mod:`repro.parallel`).
        * ``initial_solution`` — ``"anchored"`` (the designated
          ``(L0, R)`` seed) exactly when the variant is left-anchored,
          ``"arbitrary"`` (bTraversal's arbitrary maximal k-biplex)
          otherwise.
    theta_left, theta_right:
        Large-MBP thresholds (Section 5); 0 disables size filtering.
    max_results:
        Stop after yielding this many solutions, at least 1 (``None`` =
        unlimited).
    time_limit:
        Wall-clock budget in seconds, non-negative and not NaN (``None`` =
        unlimited).
    output_order:
        ``"pre"`` yields a solution as soon as it is discovered;
        ``"alternate"`` applies the alternating-output trick of Uno (2003)
        that turns the total-time bound into a polynomial *delay* bound.
    jobs:
        Number of worker processes for the sharded parallel engine
        (:mod:`repro.parallel`).  ``None`` (the default) resolves via the
        ``REPRO_JOBS`` environment variable (falling back to 1), ``0`` means
        one worker per CPU core, and any value above 1 partitions the
        traversal forest by root anchor and fans the subtrees out over a
        process pool.  The pool never has more workers than shards or
        than CPU cores (``os.cpu_count()``), however large ``jobs`` is;
        ``jobs`` itself is kept as given, so the output order and the
        merged-stats contract follow it, not the pool size.  A parallel
        run yields its merged solutions in canonical ascending
        :meth:`Biplex.key` order (deterministic, and
        equal to the serial output sorted the same way); the
        degenerate-plan fallback (fewer than two shards) keeps the serial
        DFS order.  An *uncapped* run enumerates exactly the serial
        solution set; under ``max_results``/``time_limit`` the parallel cap
        keeps the first solutions to arrive, which may be a different (and
        scheduling-dependent) subset than serial's first N — pin ``jobs=1``
        where the capped selection itself matters (as
        :mod:`repro.analysis.fraud` does).  See :mod:`repro.parallel` for
        the ordering and stats-merge contract.
    objective, top:
        What the traversal is searching *for*: ``"enumerate"`` (the
        default — every maximal k-biplex, streamed), ``"maximum"`` (the
        single largest solution, ties broken to the smallest canonical
        key) or ``"top-k"`` (the ``top`` largest, ordered by
        ``(-size, key)``; ``top`` is required for — and only valid with —
        this mode).  Solver modes plug an incumbent
        :class:`~repro.core.objective.Objective` into the engine whose
        monotone size lower bound drives extra pruning (dynamic per-side
        thresholds and the (α, β)-core subtree upper bound in
        ``_children``); the pruning is guarded by ``right_shrinking``,
        which every solver-capable variant enables.  The answer set is
        deterministic across job counts and prep modes; the
        solver-mode *work* counters are not (pruning depends on incumbent
        timing).
    prep:
        Preprocessing pipeline applied before the traversal
        (:mod:`repro.prep`): ``"core"`` (the default) shrinks the graph
        with the threshold-driven (α, β)-core / bitruss reduction — a
        no-op when both ``theta`` thresholds are 0, so plain enumerations
        are byte-identical to ``"off"``; ``"core+order"`` additionally
        expands candidates in degeneracy order instead of canonical id
        order (same solution set, different DFS order); ``"off"``
        restores raw-graph canonical-order traversal exactly.  Reported
        solutions are always translated back to the *original* graph's
        vertex ids.  ``None`` (the default) is resolved on construction
        by :func:`repro.prep.resolve_prep`, which reads the ``REPRO_PREP``
        environment variable (falling back to ``"core"``); the field
        always holds a mode after construction.
    local_enumeration:
        How EnumAlmostSat is implemented: ``"refined"`` (the default)
        runs the Section 4 algorithm at its L2.0+R2.0 refinement levels;
        ``"inflation"`` inflates each almost-satisfying graph and
        enumerates local maximal (k+1)-plexes, which is how the paper's
        bTraversal baseline is implemented in Figure 7.

    Every traversal knob is declared here and nowhere else: the front ends
    (:class:`~repro.core.itraversal.ITraversal` and
    :class:`~repro.core.btraversal.BTraversal`) and the query service
    build this dataclass directly.
    """

    variant: str = "full"
    theta_left: int = 0
    theta_right: int = 0
    max_results: Optional[int] = None
    time_limit: Optional[float] = None
    output_order: str = "pre"
    jobs: Optional[int] = None
    prep: Optional[str] = None
    objective: str = "enumerate"
    top: Optional[int] = None
    local_enumeration: str = "refined"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {', '.join(VARIANTS)}")
        if self.output_order not in ("pre", "alternate"):
            raise ValueError("output_order must be 'pre' or 'alternate'")
        if self.theta_left < 0 or self.theta_right < 0:
            raise ValueError("size thresholds must be non-negative")
        if self.local_enumeration not in ("refined", "inflation"):
            raise ValueError("local_enumeration must be 'refined' or 'inflation'")
        self.prep = resolve_prep(self.prep)
        if self.jobs is not None and self.jobs < 0:
            raise ValueError("jobs must be None or >= 0 (0 = one worker per CPU core)")
        if self.max_results is not None and self.max_results < 1:
            raise ValueError("max_results must be a positive integer or None")
        # ``not >= 0`` holds for NaN too, a deadline that would never fire.
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be a non-negative number or None")
        # One validator for CLI flags, service queries and direct
        # construction — all three reject bad (objective, top) pairs with
        # the same message.
        resolve_objective(self.objective, self.top)

    @property
    def left_anchored(self) -> bool:
        return VARIANTS[self.variant][0]

    @property
    def right_shrinking(self) -> bool:
        return VARIANTS[self.variant][1]

    @property
    def exclusion(self) -> bool:
        return VARIANTS[self.variant][2]

    @property
    def initial_solution(self) -> str:
        return "anchored" if self.left_anchored else "arbitrary"


@dataclass
class TraversalStats:
    """Counters collected during a traversal run.

    A serial run fills every counter exactly.  A parallel (``jobs > 1``) run
    reports *merged* per-worker counters under the contract documented in
    :mod:`repro.parallel`: ``num_reported`` is the exact number of unique
    solutions yielded, the work counters (``num_links``,
    ``num_almost_sat_graphs``, ``num_local_solutions``, ``num_solutions``)
    are summed over the workers (they measure work actually performed and
    may exceed the serial counts when shard subtrees overlap), and the two
    ``hit_*`` flags are OR-ed across the workers and the coordinating
    parent.  ``num_shards`` / ``num_duplicate_solutions`` /
    ``num_reexplorations`` are only non-zero after a parallel run:
    re-explorations are the visited-subtree re-traversals triggered by the
    shrinking-exclusion repair rule, which only fires under the inherited
    exclusion prefixes of shard workers (summed across workers like the
    other work counters).
    """

    num_solutions: int = 0
    num_reported: int = 0
    num_links: int = 0
    num_almost_sat_graphs: int = 0
    num_local_solutions: int = 0
    elapsed_seconds: float = 0.0
    hit_result_limit: bool = False
    hit_time_limit: bool = False
    num_shards: int = 0
    num_duplicate_solutions: int = 0
    num_reexplorations: int = 0
    best_size: int = 0
    num_pruned_by_bound: int = 0
    """``best_size`` is the largest reported solution size (every
    objective; merged via max over workers).  ``num_pruned_by_bound``
    counts subtrees/links cut by the solver objectives' incumbent bound
    (dynamic thresholds + core upper bound; summed over workers).  Like
    the other work counters it is scheduling-dependent in parallel solver
    runs — only the answer set is deterministic."""

    num_pruned_size_filter: int = 0
    num_pruned_subtree: int = 0
    num_pruned_anchor: int = 0
    num_pruned_exclusion: int = 0
    num_pruned_core_bound: int = 0
    num_pruned_right_extensible: int = 0
    """Per-prune-site counters (the observability layer's currency —
    ``repro.obs`` publishes them as ``engine_pruned_total{site=…}``).
    Each counts one physical site of the traversal, summed over parallel
    workers like the other work counters: ``size_filter`` is the
    report-time θ/bound drop (:meth:`ReverseSearchEngine._report`),
    ``subtree`` the whole-expansion early returns at the top of
    ``_children`` (Section 5 per-side thresholds and the bound-implied
    core upper bound), ``anchor`` the per-candidate almost-satisfying-graph
    prune, ``exclusion`` the exclusion-strategy skips (a processed
    anchor, a right side skipped inside EnumAlmostSat and an extended
    child; a right side counts once, however many local solutions it
    would have held), ``core_bound`` the per-local core upper
    bound, and ``right_extensible`` the right-shrinking test (Section
    3.4).  They overlap ``num_pruned_by_bound`` on purpose: that counter
    answers "what did the incumbent bound buy", these answer "where does
    pruning happen"."""

    @property
    def truncated(self) -> bool:
        """Whether the run stopped before exhausting the solution space."""
        return self.hit_result_limit or self.hit_time_limit


class _LimitReached(Exception):
    """Internal control-flow signal for result/time limits."""


#: Re-exploration cascade fallback (shard workers only): once a shard has
#: re-explored at least this many visited solutions *and* more than
#: :data:`REVISIT_FALLBACK_RATIO` times the solutions it discovered, the
#: inherited exclusion prefixes are doing more re-traversal harm than
#: pruning good — the worker drops to per-expansion exclusion for the rest
#: of the shard (sound: shrinking the exclusion sets only ever re-explores,
#: never loses solutions; the cross-shard duplicates it admits are removed
#: by the coordinator).  The left-heavy sparse regime this repairs is
#: pinned by ``benchmarks/bench_parallel.py``.
REVISIT_FALLBACK_MIN = 32
REVISIT_FALLBACK_RATIO = 2


class ReverseSearchEngine:
    """DFS over the implicit solution graph, parameterised by :class:`TraversalConfig`."""

    def __init__(
        self,
        graph: BipartiteGraph,
        k: int,
        config: Optional[TraversalConfig] = None,
        prep_plan=None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.config = config or TraversalConfig()
        # The variant's row, read once: the DFS consults it per local solution.
        row = VARIANTS[self.config.variant]
        self._left_anchored, self._right_shrinking, self._excluding = row
        if prep_plan is not None:
            # A precomputed plan (the hot-graph registry's device: prep once,
            # hand the same plan to every engine over the same
            # graph+thresholds).  Reduction and ordering are deterministic
            # fixpoints, so a shared plan reproduces exactly what this
            # constructor would have built from scratch.
            self.prep_plan = prep_plan
        else:
            # The prep plan owns the reduced graph, the id maps back to the
            # caller's coordinate space (applied around run()) and the
            # candidate orderings (_candidate_vertices).  Reduction and
            # ordering are deterministic fixpoints, so a parallel worker that
            # re-prepares the already-reduced graph it receives reproduces the
            # coordinator's graph and order exactly.
            self.prep_plan = prepare(
                graph,
                k,
                self.config.prep,
                theta_left=self.config.theta_left,
                theta_right=self.config.theta_right,
            )
        self.graph = self.prep_plan.graph
        # The graph epoch this engine enumerates.  Without a reduction the
        # plan's graph *is* the caller's object, so an edit made while a
        # traversal is suspended would silently mix two epochs into one
        # answer; every traversal entry point and every DFS step compares
        # against this and raises instead (_check_epoch).
        self.epoch = self.graph.epoch
        self.k = k
        self.stats = TraversalStats()
        # The objective strategy (enumerate-all / maximum / top-k): the
        # engine reports every solution into it and reads its monotone
        # size lower bound back for pruning.  Solver front ends (the
        # session layer) read the final answer from objective.results().
        self.objective = make_objective(self.config.objective, self.config.top)
        # Optional incumbent-gossip channel (set by the parallel worker /
        # coordinator): an object with read() -> int and publish(int) that
        # shares the best known lower bound across shard workers.  None in
        # serial runs — the objective alone carries the bound.
        self._bound_channel = None
        # Cache of the (α, β)-core survivors implied by the current bound:
        # (bound, (|core_L|, core_R mask)).  Recomputed only when the bound
        # rises — the peel costs O(E), the probes it serves one popcount.
        self._bound_core_cache = None
        # Visited solution -> the exclusion mask (left ids) its subtree was
        # (last) explored with.  The mapping is needed for correctness, not
        # just bookkeeping: a solution first reached through a link carrying
        # a *large* exclusion set explores an over-pruned subtree, and when
        # a later link arrives with a smaller set the subtree must be
        # re-explored with the intersection (see ``_children``).  With the
        # exclusion strategy disabled every value is 0 (the empty set) and
        # the mapping degenerates to the classic visited set.
        self._visited: Dict[Biplex, int] = {}
        self._start_time = 0.0
        # The explicit DFS frontier of the (last) traversal: a list of
        # frames, bottom to top — see _drive.  Exposed as state (rather
        # than locals of a generator) so a session can capture it between
        # yields and serialize a resumable cursor (frontier_state below).
        self._stack: Optional[List[List]] = None
        # Optional cooperative-cancellation probe (set by the parallel
        # worker): a zero-argument callable polled alongside the time check;
        # returning True aborts the traversal via _LimitReached without
        # setting any stats flag (the coordinator knows why it cancelled).
        self._cancel = None
        # run_shard turns this on for each shard: children then inherit the
        # accumulated exclusion prefixes down their subtrees, which is what
        # keeps the per-anchor shards nearly disjoint (a shard never
        # traverses solutions containing an earlier shard's anchor).  The
        # visited-map re-exploration rule in ``_children`` repairs the
        # over-pruning this inheritance causes, so each shard still
        # enumerates its full reachable set.  Serial runs keep it off: one
        # DFS dedups overlap through the shared visited map anyway, and
        # there the repair's re-traversals cost more than the inherited
        # pruning saves (pathological on left-heavy sparse graphs).
        self._inherit_exclusions = False
        # (epoch, order) of the right side by descending degree, the mask
        # right-extensibility probe's scan order (_right_degree_order).
        self._right_order = None
        # The side-swapped graph bTraversal's right candidates run
        # EnumAlmostSat on, built on the first one (_local_solutions).  An
        # engine never runs on another epoch (_check_epoch), so one copy
        # lasts its lifetime.
        self._swapped: Optional[BipartiteGraph] = None

    # ------------------------------------------------------------------ #
    # Entry points: each builds the frames the one DFS loop starts from
    # ------------------------------------------------------------------ #
    def _run_serial(self) -> Iterator[Biplex]:
        """The single-process DFS; also the fallback of degenerate parallel runs."""
        self._visited = {}
        # A fresh run must not inherit an earlier run's incumbent: the
        # answer would still come out right (results() keeps the stored
        # solutions), but the stale bound would prune differently and the
        # work counters would stop being a function of the input.
        self.objective.reset()
        self._bound_core_cache = None
        initial = self._initial_solution()
        self._visited[initial] = 0
        return self._drive(
            [[initial, self._children(initial, 0), False, 0]],
            TraversalStats(num_solutions=1),
        )

    def run_shard(
        self,
        root: Biplex,
        anchor: Tuple[str, int],
        exclusion: int,
    ) -> Iterator[Biplex]:
        """Enumerate the subtrees hanging off ``root`` through one anchor.

        Worker-side entry point of the sharded parallel engine
        (:mod:`repro.parallel`): regenerates the children the serial DFS
        would derive from ``root`` for the single Step-1 candidate
        ``anchor`` — with ``exclusion`` as the mask of the left anchors the
        serial root expansion would have processed before it — and explores
        each child subtree to completion.  Each shard runs with
        ``_inherit_exclusions`` enabled, so the prefix also propagates down
        the subtree (the shard-disjointness device; see
        :mod:`repro.parallel`).  ``root`` is pushed as an already-output
        frame whose children are that one anchor's, so :meth:`_drive`
        explores the subtrees in the serial order and never yields ``root``
        itself (the coordinator owns it).

        Both ``self.stats`` and ``self._visited`` are reset per shard, so a
        shard's traversal — and therefore every merged work counter — is a
        pure function of ``(root, anchor, exclusion)``, independent of how
        the dynamic scheduler assigned shards to workers.  (Sharing the
        visited map across a worker's shards would dedup a little more
        work, but it makes the merged statistics vary run to run; the
        coordinator already deduplicates the solutions themselves.)

        Solutions are yielded in *reduced* (internal) coordinates — the
        coordinator's session translates once.
        """
        # Arm exclusion inheritance per shard: the re-exploration cascade
        # fallback may have switched it off inside an earlier shard, and
        # each shard's traversal must stay a pure function of its own
        # (root, anchor, exclusion).
        self._inherit_exclusions = True
        self._visited = {root: 0}
        children = self._children(root, 0, candidates=[anchor], processed_base=exclusion)
        return self._drive([[root, children, True, 0]], TraversalStats())

    # ------------------------------------------------------------------ #
    # Resumable frontier (sessions / cursors)
    # ------------------------------------------------------------------ #
    def frontier_state(self) -> Optional[dict]:
        """Snapshot the serial DFS frontier as plain resumable state.

        Meaningful only while (or after) a *serial* traversal runs and only
        between solutions — i.e. when the run generator is suspended at a
        yield, which is exactly where a session captures cursors.  Returns
        ``None`` when no traversal has started yet.  The snapshot contains

        * ``frames`` — the DFS stack bottom-to-top as
          ``(solution, already_output, depth)`` tuples (the children
          iterators are deliberately absent: they are regenerated on
          resume and the visited set makes the replay skip everything
          already handled),
        * ``visited`` — the visited solutions, in discovery order,
        * ``stats`` — a copy of the counters.

        A serial run explores every frame, and stores every visited entry,
        with an empty exclusion set: only shard workers inherit exclusion
        prefixes, and workers mint no cursors.  So the snapshot carries no
        exclusion, and :meth:`resume_serial` restores an empty one
        everywhere.

        Everything is in the engine's *reduced* coordinate space; callers
        that serialize the state (see :mod:`repro.core.session`) translate
        nothing — resume happens inside an engine with an identical prep
        plan, which is guaranteed by the cursor fingerprint.
        """
        if self._stack is None:
            return None
        return {
            "frames": [(frame[0], bool(frame[2]), frame[3]) for frame in self._stack],
            "visited": list(self._visited),
            "stats": replace(self.stats),
        }

    def resume_serial(self, frames, visited, stats: TraversalStats) -> Iterator[Biplex]:
        """Continue a serial traversal from a :meth:`frontier_state` snapshot.

        The poly-delay structure is what makes this cheap: each restored
        frame replays its candidate scan once (skipping the children the
        restored visited set already holds), after which the DFS proceeds
        exactly as the uninterrupted run would have — the solution stream
        is the exact suffix.  Every restored frame at an output depth is
        already flagged as output, so :meth:`_drive` reports nothing twice.
        Work counters (``num_links`` etc.) count the replay work too, so a
        resumed run may report slightly more work than an uninterrupted
        one; ``num_reported`` and the solution set are exact.  The resumed
        leg times itself: ``elapsed_seconds`` and a configured
        ``time_limit`` both start when its first solution is pulled.
        """
        # Budget flags are per-leg: the resumed leg runs under its own
        # (possibly different) caps, so a previous leg's truncation must
        # not make a subsequently-completed run read as truncated.
        stats.hit_result_limit = False
        stats.hit_time_limit = False
        self._visited = dict.fromkeys(visited, 0)
        return self._drive(
            [
                [solution, self._children(solution, 0), already_output, depth]
                for solution, already_output, depth in frames
            ],
            stats,
        )

    # ------------------------------------------------------------------ #
    # DFS driver
    # ------------------------------------------------------------------ #
    def _drive(self, stack: List[List], stats: TraversalStats) -> Iterator[Biplex]:
        """Install ``stats`` and ``stack`` on the engine now; return the DFS loop over them.

        So a cursor minted before the first pull captures the leg's frames.
        """
        self.stats = stats
        self._stack = stack
        return self._loop(stack, stats)

    def _loop(self, stack: List[List], stats: TraversalStats) -> Iterator[Biplex]:
        """The one DFS loop: advance the explicit-state DFS until the stack empties.

        Fresh runs, shards and resumed legs differ only in the frames they
        start from.  This generator alone checks the epoch, ends the run
        on a budget cap, stamps ``elapsed_seconds`` and closes the frames'
        children iterators — also when the caller abandons it mid-run
        (early ``break`` / ``close()``), which unwinds through the
        ``finally`` as GeneratorExit.  The epoch check and the clock start
        at the first pull.

        Each frame is ``[solution, children iterator, already_output
        flag, depth]``.  The iterator is not serializable: a cursor stores
        the rest and :meth:`resume_serial` regenerates the iterator —
        replaying a frame's candidate scan skips everything the visited map
        already holds, so the replay continues exactly where the captured
        iterator stopped (at the cost of re-scoring that frame's earlier
        candidates once).  A re-exploration frame (a visited solution whose
        exclusion set shrank, see ``_children``) starts flagged: it
        traverses its children again but is never reported a second time.

        Every suspension point (each yielded solution) leaves ``stack`` in
        a resume-consistent state: the yielded solution is already counted,
        flagged as output and present in the visited map, and the frame
        that will produce the next solution is on the stack.  This is the
        invariant :meth:`frontier_state` relies on.
        """
        self._check_epoch()
        self._start_time = time.perf_counter()
        alternate = self.config.output_order == "alternate"
        try:
            # The first step reports a fresh run's initial solution — the
            # rule below applies to every child the loop pushes.  A shard
            # root and every resumed frame at an output depth arrive
            # flagged, so it never fires for them.
            if stack and not stack[-1][2]:
                top = stack[-1]
                if not alternate or self._output_now(top[3]):
                    top[2] = True
                    yield from self._report(top[0])
            while stack:
                frame = stack[-1]
                solution, children, already_output, depth = frame
                child = next(children, None)
                # After the step, before anything it produced is reported: a
                # step that overlapped an edit of the graph is discarded.
                self._check_epoch()
                if child is None:
                    # Pop before the (post-order) report so a cursor captured
                    # at that yield no longer carries the exhausted frame.
                    stack.pop()
                    if not already_output:
                        frame[2] = True
                        yield from self._report(solution)
                    continue
                child_solution, child_exclusion, child_fresh = child
                child_depth = depth + 1
                child_frame = [
                    child_solution,
                    self._children(child_solution, child_exclusion),
                    not child_fresh,
                    child_depth,
                ]
                # Push before reporting: a cursor captured at the report yield
                # must include the child frame, or its subtree would be lost on
                # resume (the child is already in the visited map by now).
                stack.append(child_frame)
                if child_fresh and (not alternate or self._output_now(child_depth)):
                    # The flag is raised *before* the yield: a consumer
                    # suspended there (a session capturing a cursor) must
                    # see a frontier that does not re-report on resume.
                    child_frame[2] = True
                    yield from self._report(child_solution)
        except _LimitReached:
            pass
        finally:
            stats.elapsed_seconds = time.perf_counter() - self._start_time
            # The frames stay for frontier_state, but their children
            # iterators end with the loop (a resume regenerates them).
            # Closing them frees each expansion's EnumAlmostSat table now,
            # not when the cyclic GC collects the engine they refer to.
            for frame in stack:
                frame[1].close()

    @staticmethod
    def _output_now(depth: int) -> bool:
        """Uno's alternating trick: output before recursion on even depths."""
        return depth % 2 == 0

    def _report(self, solution: Biplex) -> Iterator[Biplex]:
        """Yield ``solution`` if it passes the size filters; enforce limits."""
        self._check_time()
        if self._passes_size_filter(solution):
            if solution.size > self.stats.best_size:
                self.stats.best_size = solution.size
            if not self.objective.trivial and self.objective.observe(solution):
                channel = self._bound_channel
                if channel is not None:
                    channel.publish(self.objective.prune_below())
            self.stats.num_reported += 1
            capped = (
                self.config.max_results is not None
                and self.stats.num_reported >= self.config.max_results
            )
            # The flag is set *before* the capped yield: a consumer that
            # stops consuming once it has its max_results solutions (break,
            # islice) never resumes this generator, and a capped run must
            # not read as complete.
            if capped:
                self.stats.hit_result_limit = True
            yield solution
            if capped:
                raise _LimitReached
        return

    def _passes_size_filter(self, solution: Biplex) -> bool:
        if (
            solution.left_mask.bit_count() < self.config.theta_left
            or solution.right_mask.bit_count() < self.config.theta_right
        ):
            self.stats.num_pruned_size_filter += 1
            return False
        # Solver modes additionally drop candidates strictly below the
        # incumbent bound before they reach the consumer stream — they can
        # neither displace the incumbent nor tie it, so observing them is
        # pure overhead.  Ties (== bound) pass: the deterministic key
        # tie-break needs them.
        bound = self._current_bound()
        if bound and solution.size < bound:
            self.stats.num_pruned_size_filter += 1
            self.stats.num_pruned_by_bound += 1
            return False
        return True

    # ------------------------------------------------------------------ #
    # Incumbent-bound machinery (solver objectives)
    # ------------------------------------------------------------------ #
    def _current_bound(self) -> int:
        """Best known size lower bound: own incumbent ∨ gossiped shard bound."""
        bound = self.objective.prune_below()
        channel = self._bound_channel
        if channel is not None:
            shared = channel.read()
            if shared > bound:
                bound = shared
        return bound

    def _bound_core(self, bound: int) -> Tuple[int, int]:
        """``(|core_L|, core_R as a mask)`` of the bound-implied core (cached).

        Any solution of size ≥ ``bound`` (meeting the θ thresholds) lies
        inside the fixpoint (α, β)-core computed with the bound-implied
        per-side thresholds (:func:`repro.prep.reduce.bound_core_sets`) —
        the mid-run re-reduction.  Membership in the survivor sets yields
        the subtree upper bound ``|core_L| + |R ∩ core_R|`` used in
        ``_children``, one popcount per test.  Cached per bound value; the
        bound is monotone, so the peel reruns at most once per incumbent
        improvement.
        """
        cache = self._bound_core_cache
        if cache is not None and cache[0] == bound:
            return cache[1]
        from ..prep.reduce import bound_core_sets

        left, right = bound_core_sets(
            self.graph,
            self.k,
            bound,
            theta_left=self.config.theta_left,
            theta_right=self.config.theta_right,
        )
        core = (len(left), mask_of(right))
        self._bound_core_cache = (bound, core)
        return core

    def _check_epoch(self) -> None:
        """Raise if the graph was edited since this engine was built.

        The error is a :class:`~repro.core.session.StaleCursorError`: like a
        cursor minted before an update, a suspended traversal cannot
        continue on the new epoch.  Build a new engine to enumerate it.
        """
        if self.graph.epoch != self.epoch:
            from .session import StaleCursorError

            raise StaleCursorError(
                "stale_cursor: the graph was mutated during this enumeration "
                f"(enumeration epoch {self.epoch}, graph epoch "
                f"{self.graph.epoch}); re-run the query to get fresh results"
            )

    def _check_time(self) -> None:
        if self._cancel is not None and self._cancel():
            raise _LimitReached
        if self.config.time_limit is None:
            return
        if time.perf_counter() - self._start_time > self.config.time_limit:
            self.stats.hit_time_limit = True
            raise _LimitReached

    # ------------------------------------------------------------------ #
    # ThreeStep / iThreeStep
    # ------------------------------------------------------------------ #
    def _initial_solution(self) -> Biplex:
        if self._left_anchored:
            return initial_solution_left_anchored(self.graph, self.k)
        return arbitrary_initial_solution(self.graph, self.k)

    def _children(
        self,
        solution: Biplex,
        exclusion: int,
        candidates: Optional[List[Tuple[str, int]]] = None,
        processed_base: int = 0,
    ) -> Iterator[Tuple[Biplex, int, bool]]:
        """Generate the solutions to explore next from ``solution``.

        This is the ThreeStep (bTraversal) / iThreeStep (iTraversal)
        procedure.  Each yielded triple carries the exclusion mask (over
        left ids) the child should be explored with and whether the child
        is *fresh* (first discovery — report it) or a re-exploration of a
        visited solution whose stored exclusion set shrank.

        The exclusion strategy is applied *per expansion* (see the
        :class:`TraversalConfig` docstring): while processing anchor ``v``,
        links towards children containing an anchor processed earlier in
        this same expansion are pruned — those children are generated by
        the earlier anchor's almost-satisfying graph.  The prune is decided
        in two places.  EnumAlmostSat skips every right side ``R'`` that
        such an anchor is adjacent to all of, before any local solution on
        it is built, probed or extended: the extension would add the anchor
        (see :func:`~repro.core.enum_almost_sat.enum_local_solutions`).
        The check after the extension drops the other children that hold
        one, whose anchor misses part of ``R'``.  A local solution itself
        never holds one.  Its left side lies in ``L ∪ {v}``, and the prefix
        misses that set: it holds anchors from outside ``L``, plus (in
        shard workers) an inherited mask that ``L`` had to miss for
        ``solution`` to be admitted.  In serial runs children are explored
        with an **empty** inherited set; parallel-shard workers
        (``_inherit_exclusions``) propagate the accumulated prefixes down
        the subtree to keep shards disjoint.  The visited map +
        re-exploration rule below (re-traverse a visited child whenever a
        link arrives whose exclusion intersection strictly shrinks the
        stored set, never re-reporting it) is what keeps the traversal
        complete under *any* inherited exclusion discipline — without it,
        a solution first reached through a link carrying a large exclusion
        set explores an over-pruned subtree and later, less-excluded links
        are silently discarded.

        ``candidates`` restricts Step 1 to the given ``(side, vertex)``
        anchors (default: every vertex outside the solution, per
        configuration) and the mask ``processed_base`` seeds the
        processed-anchor prefix.  Together they let a parallel shard
        regenerate the children of the designated root for a *single*
        anchor exactly as the serial expansion would — pruned against the
        anchors the serial loop had processed before it.
        """
        config = self.config
        # Right-shrinking and exclusion come only with left-anchoring
        # (VARIANTS), so every candidate they act on is a left vertex.
        right_shrinking = self._right_shrinking
        excluding = self._excluding
        left_mask = solution.left_mask
        right_mask = solution.right_mask
        right_size = right_mask.bit_count()

        # Solver objectives: fold the incumbent size lower bound into the
        # Section 5 thresholds.  A still-useful solution has size ≥ bound,
        # hence |R| ≥ bound − n_left and |L| ≥ bound − n_right — the θ
        # prune sites below consume the merged values unchanged.  The
        # dynamic component is guarded by right_shrinking: subtree prunes
        # are sound only under the R' ⊆ R invariant, exactly like the
        # static large-MBP prunes they piggyback on.
        theta_left = config.theta_left
        theta_right = config.theta_right
        bound = self._current_bound()
        bound_core = None
        if bound and right_shrinking:
            implied_left = bound - self.graph.n_right
            implied_right = bound - self.graph.n_left
            if implied_left > theta_left:
                theta_left = implied_left
            if implied_right > theta_right:
                theta_right = implied_right
            # (α, β)-core subtree upper bound: every useful solution below
            # here keeps R' ⊆ R and lives inside the bound-implied core,
            # so its size is at most |core_L| + |R ∩ core_R|.
            bound_core = self._bound_core(bound)
            if bound_core[0] + (right_mask & bound_core[1]).bit_count() < bound:
                self.stats.num_pruned_by_bound += 1
                self.stats.num_pruned_subtree += 1
                return

        # Section 5, solution pruning: all solutions reachable from here have
        # a right side contained in ours (right-shrinking), so stop early.
        if theta_right and right_shrinking and right_size < theta_right:
            if not (config.theta_right and right_size < config.theta_right):
                self.stats.num_pruned_by_bound += 1
            self.stats.num_pruned_subtree += 1
            return
        # Section 5, left-side pruning via the exclusion set.
        if (
            theta_left
            and excluding
            and self.graph.n_left - exclusion.bit_count() < theta_left
        ):
            if not (
                config.theta_left
                and self.graph.n_left - exclusion.bit_count() < config.theta_left
            ):
                self.stats.num_pruned_by_bound += 1
            self.stats.num_pruned_subtree += 1
            return

        # EnumAlmostSat's output for a left anchor depends on it only
        # through N(v) ∩ R, its type (see enum_local_solutions), so the
        # anchors of this expansion share one table of right sides and
        # left removals.  It lives in this generator's frame: the DFS
        # descends into a child between two anchors, and the child's
        # expansion builds a table of its own.
        table = LocalSolutionTable(self.graph, left_mask, right_mask)

        # The per-expansion exclusion prefix: the inherited mask plus the
        # left anchors processed so far in this expansion (seeded by
        # ``processed_base``).  It only grows between anchors.
        pruning = exclusion | processed_base if excluding else 0
        candidate_vertices = (
            self._candidate_vertices(solution) if candidates is None else candidates
        )
        for side, vertex in candidate_vertices:
            self._check_time()
            if (pruning >> vertex) & 1:
                self.stats.num_pruned_exclusion += 1
                continue
            # Section 5, almost-satisfying-graph pruning (with the merged
            # bound-implied threshold in solver modes).  A bTraversal config
            # may carry θ too, and it has right anchors.
            if theta_right and side == "L":
                gamma_size = (self.graph.adj_left_mask(vertex) & right_mask).bit_count()
                if gamma_size + self.k < theta_right:
                    if not (
                        config.theta_right
                        and gamma_size + self.k < config.theta_right
                    ):
                        self.stats.num_pruned_by_bound += 1
                    self.stats.num_pruned_anchor += 1
                    if excluding:
                        pruning |= 1 << vertex
                    continue
            self.stats.num_almost_sat_graphs += 1
            # Children inherit the exclusions only in parallel-shard mode
            # (see the attribute comment in __init__ / method docstring).
            child_exclusion = pruning if self._inherit_exclusions else 0
            # EnumAlmostSat skips each right side that a vertex of the
            # prefix is adjacent to all of (the extension would add that
            # vertex); the check after the extension drops the children a
            # prefix vertex joins although it misses part of their R'.
            for local in self._local_solutions(
                solution, side, vertex, table, theta_right, pruning
            ):
                self.stats.num_local_solutions += 1
                # Core upper bound on the child's subtree: extension adds
                # left vertices only (right_shrinking), so the child and
                # all its descendants keep R ⊆ local.right — skip before
                # the expensive right-extensibility probe and extension.
                if bound_core is not None:
                    if bound_core[0] + (local.right_mask & bound_core[1]).bit_count() < bound:
                        self.stats.num_pruned_by_bound += 1
                        self.stats.num_pruned_core_bound += 1
                        continue
                if right_shrinking and self._right_extensible(local):
                    self.stats.num_pruned_right_extensible += 1
                    continue
                child = self._extend(local)
                if child.left_mask & pruning:
                    self.stats.num_pruned_exclusion += 1
                    continue
                # Links pruned by the exclusion strategy are not part of the
                # algorithm's solution graph, hence counted only here.
                self.stats.num_links += 1
                stored = self._visited.get(child)
                if stored is not None:
                    shrunk = stored & child_exclusion
                    if shrunk == stored:
                        continue
                    # Smaller exclusion than the child was explored with:
                    # re-explore (already reported, hence not fresh).
                    self._visited[child] = shrunk
                    self.stats.num_reexplorations += 1
                    # Cascade fallback: a shard whose re-explorations dwarf
                    # its discoveries is being eaten by the inherited
                    # prefixes — stop inheriting for the rest of the shard
                    # (per-expansion exclusion only, like serial runs).
                    if (
                        self._inherit_exclusions
                        and self.stats.num_reexplorations >= REVISIT_FALLBACK_MIN
                        and self.stats.num_reexplorations
                        > REVISIT_FALLBACK_RATIO * self.stats.num_solutions
                    ):
                        self._inherit_exclusions = False
                    yield child, shrunk, False
                    continue
                self._visited[child] = child_exclusion
                self.stats.num_solutions += 1
                yield child, child_exclusion, True
            if excluding:
                pruning |= 1 << vertex

    def _candidate_vertices(self, solution: Biplex) -> Iterator[Tuple[str, int]]:
        """Step 1 candidates: vertices outside the solution, per configuration.

        The iteration order is the prep plan's candidate ordering when one
        is set (``prep="core+order"``), canonical ascending ids otherwise.
        The order never changes the enumerated set — only the DFS order —
        and it also decides the root-anchor order of the parallel shard
        plan, which iterates this method on the designated root.
        """
        plan = self.prep_plan
        left_order = (
            plan.left_order if plan.left_order is not None else self.graph.left_vertices()
        )
        left_mask = solution.left_mask
        for v in left_order:
            if not (left_mask >> v) & 1:
                yield ("L", v)
        if not self._left_anchored:
            right_order = (
                plan.right_order
                if plan.right_order is not None
                else self.graph.right_vertices()
            )
            right_mask = solution.right_mask
            for u in right_order:
                if not (right_mask >> u) & 1:
                    yield ("R", u)

    def _local_solutions(
        self,
        solution: Biplex,
        side: str,
        vertex: int,
        table: LocalSolutionTable,
        theta_right: int,
        exclusion: int,
    ) -> Iterator[Biplex]:
        """Step 2: EnumAlmostSat on the almost-satisfying graph ``G[H ∪ {vertex}]``.

        ``table`` is the expansion's :class:`LocalSolutionTable` of
        ``solution``, shared by its left anchors.  ``theta_right`` is the
        caller's *effective* right threshold — the
        configured Section 5 value merged with the solver objectives'
        bound-implied one (see ``_children``).  ``exclusion`` is the
        caller's exclusion prefix (left ids, 0 when the variant does not
        exclude): EnumAlmostSat skips every right side one of its vertices
        is adjacent to all of (see :func:`enum_local_solutions`), counting
        each skip in ``num_pruned_exclusion``.  A right candidate
        (bTraversal only) runs the same procedure on the side-swapped graph,
        and its local solutions are swapped back.
        """
        graph = self.graph
        left = solution.left_mask
        right = solution.right_mask
        min_right = theta_right if self._right_shrinking else 0
        if side == "R":
            if self._swapped is None:
                self._swapped = graph.swap_sides()
            # The table is over the other side there, and no variant with
            # right candidates shrinks the right side (min_right is 0) or
            # excludes (the prefix over left ids is 0).
            graph, left, right, table = self._swapped, right, left, None
        if self.config.local_enumeration == "inflation":
            # The k-plex search gets what is left of the run's budget; a cut
            # search ends the run, so a partial list is never used.
            time_left = self.config.time_limit
            if time_left is not None:
                time_left -= time.perf_counter() - self._start_time
            found, cut = enum_local_solutions_inflation(
                graph, iter_bits(left), iter_bits(right), vertex, self.k, time_limit=time_left
            )
            if cut:
                self.stats.hit_time_limit = True
                raise _LimitReached
        else:
            found = enum_local_solutions(
                graph,
                left,
                right,
                vertex,
                self.k,
                min_right_size=min_right,
                exclusion=exclusion,
                stats=self.stats,
                table=table,
            )
        if side == "L":
            return found
        return (Biplex(local.right_mask, local.left_mask) for local in found)

    def _extend(self, local: Biplex) -> Biplex:
        """Step 3: extend a local solution to a maximal k-biplex of ``G``."""
        if self._right_shrinking:
            # iTraversal extends with left-side vertices only (Line 8).
            return extend_to_maximal(
                self.graph,
                local.left_mask,
                local.right_mask,
                self.k,
                candidate_right=(),
            )
        return extend_to_maximal(self.graph, local.left_mask, local.right_mask, self.k)

    def _right_extensible(self, local: Biplex) -> bool:
        """Right-shrinking test (Line 7): can any right vertex of G be added?

        A right vertex can only be added if it is adjacent to at least
        ``|L| - k`` vertices of the local solution's left side ``L``.
        When ``|L| <= k`` even a right vertex with *no* neighbour in ``L``
        may be addable (it misses all of ``L``, which the slack allows), but
        all such vertices pass or fail the addability test identically — so
        one representative stands in for them.

        The probe scans the right side by descending degree
        (:meth:`_right_degree_order`) and stops at the first degree below
        ``|L| - k``; each vertex scanned costs one ``&`` and a popcount
        before the exact probe.
        """
        graph = self.graph
        k = self.k
        left_mask = local.left_mask
        right_mask = local.right_mask
        need = left_mask.bit_count() - k
        representative = need <= 0
        adj_right_mask = graph.adj_right_mask
        for u, degree in self._right_degree_order():
            if degree < need:
                return False
            if (right_mask >> u) & 1:
                continue
            hits = (adj_right_mask(u) & left_mask).bit_count()
            if hits < need:
                continue
            if not hits:
                if not representative:
                    continue
                representative = False
            if can_add_right_masked(graph, left_mask, right_mask, u, k):
                return True
        return False

    def _right_degree_order(self) -> List[Tuple[int, int]]:
        """``(u, deg(u))`` for every right vertex, by descending degree.

        Built on a run's first probe rather than in the constructor,
        and rebuilt whenever the graph's ``epoch`` changes, so an in-place
        edge update can never leave a stale degree cutoff.
        """
        graph = self.graph
        cached = self._right_order
        if cached is None or cached[0] != graph.epoch:
            adj_right_mask = graph.adj_right_mask
            order = sorted(
                ((u, adj_right_mask(u).bit_count()) for u in range(graph.n_right)),
                key=lambda pair: -pair[1],
            )
            cached = self._right_order = (graph.epoch, order)
        return cached[1]

