"""iTraversal: the paper's improved reverse-search algorithm (Algorithm 2).

iTraversal starts the DFS from the designated initial solution
``H0 = (L0, R)`` and sparsifies the solution graph with three techniques:
left-anchored traversal (Section 3.3), right-shrinking traversal
(Section 3.4) and the exclusion strategy (Section 3.5).  The evaluation also
exercises the intermediate variants ``iTraversal-ES`` (no exclusion
strategy) and ``iTraversal-ES-RS`` (neither exclusion nor right-shrinking),
plus the symmetric *right-anchored* variant that uses ``H0' = (L, R0)``;
all of them are provided here, named by the left-anchored rows of
:data:`repro.core.traversal.VARIANTS`.

:class:`TraversalFrontEnd` is the one front end over an engine:
:class:`ITraversal`, :class:`~repro.core.btraversal.BTraversal` and
:class:`~repro.core.large.LargeMBPEnumerator` differ only in the
:class:`TraversalConfig` their constructors build.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..graph.bipartite import BipartiteGraph
from .biplex import Biplex
from .enum_almost_sat import DEFAULT_CONFIG, EnumAlmostSatConfig
from .traversal import VARIANTS as TRAVERSALS
from .traversal import ReverseSearchEngine, TraversalConfig, TraversalStats


def itraversal_config(
    variant: str = "full",
    enum_config: EnumAlmostSatConfig = DEFAULT_CONFIG,
    theta_left: int = 0,
    theta_right: int = 0,
    max_results: Optional[int] = None,
    time_limit: Optional[float] = None,
    output_order: str = "pre",
    jobs: Optional[int] = None,
    prep: Optional[str] = None,
    objective: str = "enumerate",
    top: Optional[int] = None,
) -> TraversalConfig:
    """Build the :class:`TraversalConfig` of iTraversal or one of its ablations.

    ``variant`` names the traversal, one of :attr:`ITraversal.VARIANTS`.
    ``jobs`` selects the sharded parallel engine: ``None`` resolves via
    ``REPRO_JOBS`` (default 1 = serial), ``0`` means one worker per CPU
    core.  ``prep=None`` resolves via ``REPRO_PREP``
    (default ``"core"``, see :mod:`repro.prep`); ``"off"`` restores
    raw-graph canonical-order traversal exactly.  ``objective`` / ``top``
    select the solver objective (:mod:`repro.core.objective`):
    ``"enumerate"`` (default), ``"maximum"``, or ``"top-k"`` with
    ``top=N``.
    """
    from ..prep import resolve_prep

    return TraversalConfig(
        variant=variant,
        enum_config=enum_config,
        theta_left=theta_left,
        theta_right=theta_right,
        max_results=max_results,
        time_limit=time_limit,
        output_order=output_order,
        jobs=jobs,
        prep=resolve_prep(prep),
        objective=objective,
        top=top,
    )


class TraversalFrontEnd:
    """One engine, read in the input graph's vertex ids.

    The shared front end of :class:`ITraversal`,
    :class:`~repro.core.btraversal.BTraversal` and
    :class:`~repro.core.large.LargeMBPEnumerator`: each constructor builds
    its :class:`TraversalConfig` and hands it here.  ``mirrored`` runs the
    engine on ``graph.swap_sides()`` and swaps every solution back (the
    ``anchor="right"`` iTraversal).
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        k: int,
        config: TraversalConfig,
        mirrored: bool = False,
    ) -> None:
        self.k = k
        self._mirrored = mirrored
        self._engine = ReverseSearchEngine(
            graph.swap_sides() if mirrored else graph, k, config
        )

    def initial_solution(self) -> Biplex:
        """The traversal's initial solution in the *original* graph's coordinates."""
        solution = self._engine.prep_plan.translate(self._engine._initial_solution())
        return self._restore(solution)

    def run(self) -> Iterator[Biplex]:
        """Lazily yield maximal k-biplexes (in original-graph coordinates).

        Each call is a fresh one-shot enumeration session (see
        :meth:`session` for the pausable variant with cursors).  A
        ``max_results`` or ``time_limit`` cap sets
        ``stats.hit_result_limit`` / ``stats.hit_time_limit`` by the time
        the affected solution (or the end of the stream) reaches the
        caller, so a consumer that stops at the cap still reads the run as
        truncated.
        """
        for solution in self._engine.run():
            yield self._restore(solution)

    def session(self):
        """A fresh pausable :class:`~repro.core.session.EnumerationSession`.

        The session shares this instance's engine (graph conversion and
        prep are not repeated) and yields solutions in the original
        graph's coordinates; use :meth:`EnumerationSession.next_batch` /
        ``cursor()`` for pagination and resume.  Only one session (or
        :meth:`run` stream) per instance should be live at a time — they
        share the engine's traversal state, exactly like concurrent
        ``run()`` iterators always did.  Unsupported for the mirrored
        ``anchor="right"`` variant, whose output coordinate swap lives in
        this front end, not in the session layer.
        """
        if self._mirrored:
            raise NotImplementedError(
                "sessions yield working-graph coordinates; the anchor='right' "
                "mirror swap is only applied by ITraversal.run()"
            )
        from .session import EnumerationSession

        return EnumerationSession.from_engine(self._engine)

    def enumerate(self) -> List[Biplex]:
        """Enumerate all maximal k-biplexes (subject to configured limits)."""
        return list(self.run())

    @property
    def stats(self) -> TraversalStats:
        """Counters of the last run."""
        return self._engine.stats

    @property
    def config(self) -> TraversalConfig:
        """The underlying engine configuration (read-only by convention)."""
        return self._engine.config

    @property
    def prep(self):
        """The :class:`~repro.prep.PrepPlan` the engine runs on.

        Mind that for ``anchor="right"`` the plan lives in the mirrored
        graph's coordinate space (its ``removed_left`` counts mirrored-left
        = original-right vertices, and vice versa).
        """
        return self._engine.prep_plan

    def _restore(self, solution: Biplex) -> Biplex:
        if not self._mirrored:
            return solution
        return Biplex(solution.right_mask, solution.left_mask)


class ITraversal(TraversalFrontEnd):
    """Enumerate maximal k-biplexes with the iTraversal algorithm.

    Parameters
    ----------
    graph:
        Input bipartite graph.
    k:
        Biplex parameter (positive integer).
    variant:
        One of :attr:`VARIANTS`: ``"full"`` (default, all three
        techniques), ``"no-exclusion"`` (iTraversal-ES in the paper) or
        ``"left-anchored-only"`` (iTraversal-ES-RS).  bTraversal is
        :class:`~repro.core.btraversal.BTraversal`.
    anchor:
        ``"left"`` (default) uses ``H0 = (L0, R)``; ``"right"`` uses the
        symmetric ``H0' = (L, R0)`` by mirroring the graph.  The right
        anchor enumerates only (``mode="enumerate"``): the solver modes
        would break ties by the mirrored graph's keys.
    theta_left, theta_right:
        Large-MBP size thresholds (Section 5); 0 disables them.
    max_results, time_limit, output_order, enum_config:
        Passed through to the traversal engine.
    jobs:
        Worker processes for the sharded parallel engine
        (:mod:`repro.parallel`).  ``None`` resolves via ``REPRO_JOBS``
        (default 1 = serial), ``0`` means one worker per CPU core; any
        value produces the same solution set as the serial run for
        uncapped enumerations (a ``max_results``/``time_limit`` cap keeps
        the first unique solutions to arrive, which may differ from
        serial's first N).
    prep:
        Preprocessing pipeline (:mod:`repro.prep`): ``None`` resolves via
        ``REPRO_PREP`` (default ``"core"`` — threshold-driven core/bitruss
        reduction, a no-op without size thresholds), ``"core+order"`` adds
        degeneracy candidate ordering, ``"off"`` restores raw-graph
        canonical-order traversal exactly.  Solutions are always reported
        in the original graph's vertex ids; the :attr:`prep` property
        exposes the plan (reduction sizes, orderings) of the last
        construction.
    mode, top:
        Solver objective (:mod:`repro.core.objective`).  The default
        ``"enumerate"`` streams every maximal k-biplex; ``"maximum"``
        makes :meth:`run` yield the single largest one (ties broken by
        canonical key) and ``"top-k"`` with ``top=N`` the ``N`` largest
        in ``(-size, key)`` order — both with the incumbent size bound
        driving extra traversal pruning, and both only with the left
        anchor.

    Examples
    --------
    >>> from repro.graph import paper_example_graph
    >>> algorithm = ITraversal(paper_example_graph(), k=1)
    >>> initial = algorithm.initial_solution()
    >>> sorted(initial.right)
    [0, 1, 2, 3, 4]
    """

    #: The left-anchored traversals of :data:`repro.core.traversal.VARIANTS`.
    VARIANTS = tuple(name for name, flags in TRAVERSALS.items() if flags[0])

    def __init__(
        self,
        graph: BipartiteGraph,
        k: int,
        variant: str = "full",
        anchor: str = "left",
        enum_config: EnumAlmostSatConfig = DEFAULT_CONFIG,
        theta_left: int = 0,
        theta_right: int = 0,
        max_results: Optional[int] = None,
        time_limit: Optional[float] = None,
        output_order: str = "pre",
        jobs: Optional[int] = None,
        prep: Optional[str] = None,
        mode: str = "enumerate",
        top: Optional[int] = None,
    ) -> None:
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(self.VARIANTS)}")
        if anchor not in ("left", "right"):
            raise ValueError("anchor must be 'left' or 'right'")
        mirrored = anchor == "right"
        if mirrored and mode not in (None, "enumerate"):
            raise ValueError(
                f"anchor='right' supports only mode='enumerate', not mode={mode!r}"
            )
        self.variant = variant
        self.anchor = anchor
        if mirrored:
            # When the graph is mirrored the size thresholds swap roles too.
            theta_left, theta_right = theta_right, theta_left
        config = itraversal_config(
            variant=variant,
            enum_config=enum_config,
            theta_left=theta_left,
            theta_right=theta_right,
            max_results=max_results,
            time_limit=time_limit,
            output_order=output_order,
            jobs=jobs,
            prep=prep,
            objective=mode,
            top=top,
        )
        super().__init__(graph, k, config, mirrored)


def enumerate_mbps(
    graph: BipartiteGraph,
    k: int,
    variant: str = "full",
    max_results: Optional[int] = None,
    time_limit: Optional[float] = None,
    jobs: Optional[int] = None,
    prep: Optional[str] = None,
    mode: str = "enumerate",
    top: Optional[int] = None,
) -> Tuple[List[Biplex], TraversalStats]:
    """Enumerate maximal k-biplexes with iTraversal; the main library entry point.

    Returns the list of solutions together with the run statistics.  In
    the solver modes (``mode="maximum"`` / ``mode="top-k", top=N``) the
    list is the refined answer set instead of the full enumeration.
    """
    algorithm = ITraversal(
        graph,
        k,
        variant=variant,
        max_results=max_results,
        time_limit=time_limit,
        jobs=jobs,
        prep=prep,
        mode=mode,
        top=top,
    )
    solutions = algorithm.enumerate()
    return solutions, algorithm.stats


def enumerate_large_mbps(
    graph: BipartiteGraph,
    k: int,
    theta: int,
    use_core_preprocessing: bool = True,
    max_results: Optional[int] = None,
    time_limit: Optional[float] = None,
    jobs: Optional[int] = None,
    prep: Optional[str] = None,
) -> Tuple[List[Biplex], TraversalStats]:
    """Enumerate MBPs whose two sides both have at least ``theta`` vertices.

    This is the Section 5 extension: the traversal prunes small solutions
    on the fly instead of filtering after a full enumeration, and (unless
    ``use_core_preprocessing=False`` / ``prep="off"``) the input graph is
    first shrunk by the threshold-driven core/bitruss reduction of
    :mod:`repro.prep`, which every large MBP provably survives.
    """
    from .large import LargeMBPEnumerator

    enumerator = LargeMBPEnumerator(
        graph,
        k,
        theta=theta,
        use_core_preprocessing=use_core_preprocessing,
        max_results=max_results,
        time_limit=time_limit,
        jobs=jobs,
        prep=prep,
    )
    solutions = enumerator.enumerate()
    return solutions, enumerator.stats
