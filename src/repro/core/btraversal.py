"""bTraversal: the baseline reverse-search framework (Algorithm 1).

bTraversal is the direct instantiation of the Cohen–Kimelfeld–Sagiv reverse
search for hereditary properties: start from an arbitrary maximal k-biplex
and repeatedly apply the ThreeStep procedure, growing almost-satisfying
graphs with vertices from *both* sides and keeping every link of the
(strongly connected) solution graph.  It is correct but its solution graph
is dense, which is exactly what iTraversal improves on.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..graph.bipartite import BipartiteGraph
from .biplex import Biplex
from .enum_almost_sat import DEFAULT_CONFIG, EnumAlmostSatConfig
from .traversal import ReverseSearchEngine, TraversalConfig, TraversalStats


def btraversal_config(
    enum_config: EnumAlmostSatConfig = DEFAULT_CONFIG,
    max_results: Optional[int] = None,
    time_limit: Optional[float] = None,
    output_order: str = "pre",
    local_enumeration: str = "refined",
    jobs: Optional[int] = None,
    prep: Optional[str] = None,
) -> TraversalConfig:
    """The :class:`TraversalConfig` corresponding to bTraversal.

    ``local_enumeration="inflation"`` reproduces the paper's Figure 7
    baseline, whose EnumAlmostSat is implemented by inflating each
    almost-satisfying graph and enumerating local maximal (k+1)-plexes;
    ``"refined"`` (default) uses the same Section 4 implementation as
    iTraversal, which is the "fair comparison" setting of Figure 11.
    ``jobs=None`` resolves via ``REPRO_JOBS`` (default 1 = serial).  Note that without
    the exclusion strategy bTraversal's parallel shards overlap heavily —
    the run stays correct (the coordinator deduplicates) but the
    duplicated traversal work limits the speedup (see
    :mod:`repro.parallel`).  ``prep=None`` resolves via ``REPRO_PREP``
    (default ``"core"``, a no-op here since bTraversal runs without size
    thresholds — only ``"core+order"`` changes its traversal order);
    ``"off"`` pins raw canonical order.
    """
    from ..prep import resolve_prep

    return TraversalConfig(
        prep=resolve_prep(prep),
        left_anchored=False,
        right_shrinking=False,
        exclusion=False,
        enum_config=enum_config,
        initial_solution="arbitrary",
        max_results=max_results,
        time_limit=time_limit,
        output_order=output_order,
        local_enumeration=local_enumeration,
        jobs=jobs,
    )


class BTraversal:
    """Enumerate maximal k-biplexes with the baseline bTraversal algorithm.

    Examples
    --------
    >>> from repro.graph import paper_example_graph
    >>> algorithm = BTraversal(paper_example_graph(), k=1)
    >>> solutions = algorithm.enumerate()
    >>> all(len(s.left) + len(s.right) > 0 for s in solutions)
    True
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        k: int,
        enum_config: EnumAlmostSatConfig = DEFAULT_CONFIG,
        max_results: Optional[int] = None,
        time_limit: Optional[float] = None,
        output_order: str = "pre",
        local_enumeration: str = "refined",
        jobs: Optional[int] = None,
        prep: Optional[str] = None,
    ) -> None:
        self.graph = graph
        self.k = k
        self._engine = ReverseSearchEngine(
            graph,
            k,
            btraversal_config(
                enum_config=enum_config,
                max_results=max_results,
                time_limit=time_limit,
                output_order=output_order,
                local_enumeration=local_enumeration,
                jobs=jobs,
                prep=prep,
            ),
        )

    def run(self) -> Iterator[Biplex]:
        """Lazily yield maximal k-biplexes (a fresh one-shot session per call)."""
        return self._engine.run()

    def session(self):
        """A fresh pausable :class:`~repro.core.session.EnumerationSession`.

        Shares this instance's engine; see
        :meth:`repro.core.itraversal.ITraversal.session` for the liveness
        contract.
        """
        from .session import EnumerationSession

        return EnumerationSession.from_engine(self._engine)

    def enumerate(self) -> List[Biplex]:
        """Enumerate all maximal k-biplexes (subject to any configured limits)."""
        return self._engine.enumerate()

    @property
    def stats(self) -> TraversalStats:
        """Counters of the last run."""
        return self._engine.stats

    @property
    def prep(self):
        """The :class:`~repro.prep.PrepPlan` the engine runs on."""
        return self._engine.prep_plan


def enumerate_mbps_btraversal(
    graph: BipartiteGraph,
    k: int,
    max_results: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> Tuple[List[Biplex], TraversalStats]:
    """Functional convenience wrapper around :class:`BTraversal`."""
    algorithm = BTraversal(graph, k, max_results=max_results, time_limit=time_limit)
    solutions = algorithm.enumerate()
    return solutions, algorithm.stats
