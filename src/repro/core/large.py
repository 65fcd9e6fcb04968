"""Large maximal k-biplex enumeration (Section 5 of the paper).

A *large MBP* is a maximal k-biplex whose two sides both contain at least
``θ`` vertices.  The iTraversal framework supports enumerating them without
enumerating all MBPs first, thanks to the right-shrinking traversal:

* *almost-satisfying graph pruning* — skip a candidate vertex ``v`` when
  ``δ(v, R) + k < θ``,
* *local solution pruning* — skip local solutions with ``|R'| < θ``,
* *solution pruning* — do not recurse from solutions with ``|R| < θ``,
* *left-side pruning* — do not recurse when ``|L| − |ℰ(H)| < θ``.

All four rules live inside the traversal engine
(:mod:`repro.core.traversal`).  The graph-shrinking preprocessing of the
paper's Figure 10 experiment now lives in :mod:`repro.prep` and is applied
by the engine itself (including the id translation back to the original
graph), so :class:`LargeMBPEnumerator` only builds the thresholded
iTraversal configuration and runs it through iTraversal's front end
(:class:`~repro.core.itraversal.TraversalFrontEnd`).  The prep
reduction is *stronger* than the historical ``(θ − k, θ − k)``-core here:
it uses the asymmetric ``(θ_R − k, θ_L − k)`` bounds — sound when
``theta_left != theta_right``, where a symmetric ``min(θ) − k`` bound
under-peels one side and the historical implementation over-constrained
the unthresholded side — and adds bitruss edge peeling when the
thresholds support it.
"""

from __future__ import annotations

from typing import List, Optional

from ..graph.bipartite import BipartiteGraph
from .biplex import Biplex
from .itraversal import TraversalFrontEnd
from .traversal import TraversalConfig


class LargeMBPEnumerator(TraversalFrontEnd):
    """Enumerate maximal k-biplexes with both sides of size at least ``theta``.

    Parameters
    ----------
    graph:
        Input bipartite graph.
    k:
        Biplex parameter.
    theta:
        Size threshold applied to both sides.  Use ``theta_left`` /
        ``theta_right`` for asymmetric thresholds.
    prep:
        Preprocessing mode passed to the engine (:mod:`repro.prep`);
        ``None`` resolves via ``REPRO_PREP`` (default ``"core"``, which
        shrinks the graph with the threshold-driven core/bitruss
        reduction before enumerating: always safe, usually much faster).
        ``"core+order"`` adds degeneracy candidate ordering on top of the
        reduction; ``"off"`` enumerates the unreduced graph.
    max_results, time_limit:
        The :class:`~repro.core.traversal.TraversalConfig` budgets.
    jobs:
        Worker processes for the sharded parallel engine
        (:mod:`repro.parallel`); ``None`` resolves via ``REPRO_JOBS``
        (default 1 = serial), ``0`` means one worker per CPU core.  The
        per-worker statistics — including the truncation flags — are merged
        back into :attr:`stats`, so ``stats.truncated`` is reliable for
        parallel runs too.
    mode, top:
        Solver objective (:mod:`repro.core.objective`): ``"maximum"`` /
        ``"top-k", top=N`` return the largest large MBP(s) instead of all
        of them.  The θ thresholds and the incumbent size bound flow
        through the same per-side pruning machinery in the engine — the
        bound simply tightens the effective thresholds as solutions
        arrive.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        k: int,
        theta: int = 0,
        theta_left: Optional[int] = None,
        theta_right: Optional[int] = None,
        max_results: Optional[int] = None,
        time_limit: Optional[float] = None,
        jobs: Optional[int] = None,
        prep: Optional[str] = None,
        mode: str = "enumerate",
        top: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.theta_left = theta if theta_left is None else theta_left
        self.theta_right = theta if theta_right is None else theta_right
        config = TraversalConfig(
            theta_left=self.theta_left,
            theta_right=self.theta_right,
            max_results=max_results,
            time_limit=time_limit,
            jobs=jobs,
            prep=prep,
            objective=mode,
            top=top,
        )
        super().__init__(graph, k, config)

    @property
    def core_graph(self) -> BipartiteGraph:
        """The (possibly shrunk) graph the enumeration actually runs on."""
        return self._engine.graph

    @property
    def truncated(self) -> bool:
        """Whether the last run was cut short by ``max_results``/``time_limit``.

        Delegates to :attr:`TraversalStats.truncated`; valid even when the
        consumer stopped iterating :meth:`run` the moment the cap was
        reached (the engine raises the result-limit flag *before* yielding
        the capped solution), so a capped run is never reported as
        complete.
        """
        return self.stats.truncated


def filter_large(solutions: List[Biplex], theta_left: int, theta_right: int) -> List[Biplex]:
    """Post-filter a solution list by side sizes.

    This is what bTraversal has to do (enumerate everything, then filter);
    it exists so benchmarks can contrast the two approaches.  Filtering
    carries no completeness information of its own: when ``solutions``
    came from a capped run, consult that run's ``stats.truncated`` before
    treating the filtered list as the full answer.
    """
    return [
        solution
        for solution in solutions
        if len(solution.left) >= theta_left and len(solution.right) >= theta_right
    ]
