"""bTraversal: the baseline reverse-search framework (Algorithm 1).

bTraversal is the direct instantiation of the Cohen–Kimelfeld–Sagiv reverse
search for hereditary properties: start from an arbitrary maximal k-biplex
and repeatedly apply the ThreeStep procedure, growing almost-satisfying
graphs with vertices from *both* sides and keeping every link of the
(strongly connected) solution graph.  It is correct but its solution graph
is dense, which is exactly what iTraversal improves on.

In the engine it is the ``"btraversal"`` row of
:data:`repro.core.traversal.VARIANTS`; :class:`BTraversal` builds that
:class:`~repro.core.traversal.TraversalConfig` and runs it through
iTraversal's front end (:class:`~repro.core.itraversal.TraversalFrontEnd`).
"""

from __future__ import annotations

from typing import Optional

from ..graph.bipartite import BipartiteGraph
from .itraversal import TraversalFrontEnd
from .traversal import TraversalConfig


class BTraversal(TraversalFrontEnd):
    """Enumerate maximal k-biplexes with the baseline bTraversal algorithm.

    The parameters are the :class:`~repro.core.traversal.TraversalConfig`
    fields of the same names, with ``variant="btraversal"``.
    ``local_enumeration="inflation"`` reproduces the paper's Figure 7
    baseline, whose EnumAlmostSat is implemented by inflating each
    almost-satisfying graph and enumerating local maximal (k+1)-plexes;
    ``"refined"`` (default) uses the same Section 4 implementation as
    iTraversal, which is the "fair comparison" setting of Figure 11.
    ``jobs=None`` resolves via ``REPRO_JOBS`` (default 1 = serial).  Note
    that without the exclusion strategy bTraversal's parallel shards
    overlap heavily — the run stays correct (the coordinator deduplicates)
    but the duplicated traversal work limits the speedup (see
    :mod:`repro.parallel`).  ``prep=None`` resolves via ``REPRO_PREP``
    (default ``"core"``, a no-op here since bTraversal runs without size
    thresholds — only ``"core+order"`` changes its traversal order);
    ``"off"`` pins raw canonical order.

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
        max_results: Optional[int] = None,
        time_limit: Optional[float] = None,
        output_order: str = "pre",
        local_enumeration: str = "refined",
        jobs: Optional[int] = None,
        prep: Optional[str] = None,
    ) -> None:
        config = TraversalConfig(
            variant="btraversal",
            max_results=max_results,
            time_limit=time_limit,
            output_order=output_order,
            local_enumeration=local_enumeration,
            jobs=jobs,
            prep=prep,
        )
        super().__init__(graph, k, config)
