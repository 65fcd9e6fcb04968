"""iTraversal: the paper's improved reverse-search algorithm (Algorithm 2).

iTraversal starts the DFS from the designated initial solution
``H0 = (L0, R)`` and sparsifies the solution graph with three techniques:
left-anchored traversal (Section 3.3), right-shrinking traversal
(Section 3.4) and the exclusion strategy (Section 3.5).  The evaluation also
exercises the intermediate variants ``iTraversal-ES`` (no exclusion
strategy) and ``iTraversal-ES-RS`` (neither exclusion nor right-shrinking),
named, like the full algorithm, by the left-anchored rows of
:data:`repro.core.traversal.VARIANTS`.  The symmetric *right-anchored*
traversal from ``H0' = (L, R0)`` (Section 3.2) is the left-anchored one on
the side-swapped graph: ``ITraversal(graph.swap_sides(), k)``, whose
solutions ``s`` read in the input's ids as ``Biplex(s.right_mask,
s.left_mask)``.

:class:`TraversalFrontEnd` is the one front end over an engine:
:class:`ITraversal` and :class:`~repro.core.btraversal.BTraversal` differ
only in the :class:`TraversalConfig` their constructors build.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..graph.bipartite import BipartiteGraph
from .biplex import Biplex
from .traversal import VARIANTS as TRAVERSALS
from .traversal import ReverseSearchEngine, TraversalConfig, TraversalStats


class TraversalFrontEnd:
    """One engine, read in the input graph's vertex ids.

    The shared front end of :class:`ITraversal` and
    :class:`~repro.core.btraversal.BTraversal`: each constructor builds
    its :class:`TraversalConfig` and hands it here.
    """

    def __init__(self, graph: BipartiteGraph, k: int, config: TraversalConfig) -> None:
        self.k = k
        self._engine = ReverseSearchEngine(graph, k, config)

    def initial_solution(self) -> Biplex:
        """The traversal's initial solution in the *original* graph's coordinates."""
        return self._engine.prep_plan.translate(self._engine._initial_solution())

    def run(self) -> Iterator[Biplex]:
        """Lazily yield maximal k-biplexes (in original-graph coordinates).

        Each call streams a fresh one-shot :meth:`session` — sessions are
        the only runners of an engine: they choose the serial or parallel
        traversal, translate solutions back to the input's ids and publish
        the run's stats.  Nothing runs before the first solution is
        pulled.  A ``max_results`` or ``time_limit`` cap sets
        ``stats.hit_result_limit`` / ``stats.hit_time_limit`` by the time
        the affected solution (or the end of the stream) reaches the
        caller, so a consumer that stops at the cap still reads the run as
        truncated.
        """
        yield from self.session().stream()

    def session(self):
        """A fresh pausable :class:`~repro.core.session.EnumerationSession`.

        The session shares this instance's engine (graph conversion and
        prep are not repeated) and yields solutions in the original
        graph's coordinates; use :meth:`EnumerationSession.next_batch` /
        ``cursor()`` for pagination and resume.  Only one session (or
        :meth:`run` stream) per instance should be live at a time — they
        share the engine's traversal state.
        """
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
        """The :class:`~repro.prep.PrepPlan` the engine runs on."""
        return self._engine.prep_plan


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
        :class:`~repro.core.btraversal.BTraversal`.  Every variant starts
        from ``H0 = (L0, R)``; the right-anchored traversal from
        ``H0' = (L, R0)`` is this class on ``graph.swap_sides()`` (swap
        each solution back with ``Biplex(s.right_mask, s.left_mask)``).
    theta_left, theta_right, max_results, time_limit, output_order, jobs, prep:
        The :class:`TraversalConfig` fields of the same names.  ``jobs``
        selects the sharded parallel engine (:mod:`repro.parallel`) and
        ``prep`` the preprocessing pipeline (:mod:`repro.prep`); ``None``
        resolves either from its environment variable.  Solutions are
        always reported in the input graph's vertex ids; the :attr:`prep`
        property exposes the plan (reduction sizes, orderings, and the
        reduced graph the engine runs on as ``prep.graph``).
    mode, top:
        Solver objective (:mod:`repro.core.objective`), the config's
        ``objective`` / ``top``.  The default ``"enumerate"`` streams every
        maximal k-biplex; ``"maximum"`` makes :meth:`run` yield the single
        largest one (ties broken by canonical key) and ``"top-k"`` with
        ``top=N`` the ``N`` largest in ``(-size, key)`` order — both with
        the incumbent size bound driving extra traversal pruning.

    Large MBPs (Section 5)
    ----------------------
    With ``theta_left`` / ``theta_right`` set, only MBPs with
    ``|L| >= θ_L`` and ``|R| >= θ_R`` are reported, and the
    right-shrinking traversal prunes the small ones on the fly instead of
    enumerating everything and filtering afterwards
    (:func:`~repro.core.verify.filter_large`):

    * *almost-satisfying graph pruning* — skip a candidate vertex ``v``
      when ``δ(v, R) + k < θ_R``,
    * *local solution pruning* — skip local solutions with ``|R'| < θ_R``,
    * *solution pruning* — do not recurse from solutions with ``|R| < θ_R``,
    * *left-side pruning* — do not recurse when ``|L| − |ℰ(H)| < θ_L``.

    Unless ``prep="off"``, the graph is first shrunk by the asymmetric
    ``(θ_R − k, θ_L − k)``-core plus the bitruss peel
    (:mod:`repro.prep.reduce`), which every large MBP survives.  The
    solver objectives fold their incumbent size bound into the same
    thresholds.

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
        config = TraversalConfig(
            variant=variant,
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
        super().__init__(graph, k, config)


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
