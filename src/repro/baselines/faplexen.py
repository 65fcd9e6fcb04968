"""The graph-inflation baseline (``FaPlexen`` in the paper's figures).

The baseline enumerates maximal k-biplexes of a bipartite graph ``G`` by

1. *inflating* ``G`` into a general graph (adding an edge between every pair
   of same-side vertices), and
2. enumerating all maximal ``(k+1)``-plexes of the inflated graph with a
   maximal k-plex enumerator (the paper uses FaPlexen; we use the
   branch-and-bound enumerator of :mod:`repro.baselines.kplex`).

A vertex subset of the inflated graph is a ``(k+1)``-plex exactly when the
corresponding ``(L', R')`` is a k-biplex of ``G``, and maximality carries
over, so the pipeline is exact.  Its weakness — the reason the paper's
evaluation shows it running out of memory/time on all but the smallest
datasets — is the inflation step itself, which produces ``Θ(|L|² + |R|²)``
edges regardless of how sparse the input is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..core.biplex import Biplex
from ..graph.bipartite import BipartiteGraph
from ..graph.inflate import inflate, inflated_edge_count, split_vertex_set
from .kplex import enumerate_maximal_kplexes_with_status


@dataclass
class InflationStats:
    """Measurements of one inflation-pipeline run."""

    inflated_edges: int = 0
    inflation_seconds: float = 0.0
    enumeration_seconds: float = 0.0
    truncated: bool = False

    @property
    def total_seconds(self) -> float:
        """End-to-end wall-clock time of the pipeline."""
        return self.inflation_seconds + self.enumeration_seconds


class FaPlexenPipeline:
    """Maximal k-biplex enumeration via graph inflation + maximal (k+1)-plexes.

    Parameters
    ----------
    graph:
        Input bipartite graph.
    k:
        Biplex parameter.
    memory_edge_budget:
        The pipeline refuses to inflate graphs whose inflated edge count
        exceeds this budget and reports ``truncated`` instead — this mirrors
        the paper's *OUT* (out of 32 GB memory) outcomes for FaPlexen on
        larger datasets without actually exhausting the machine.
    max_results, time_limit:
        Optional limits forwarded to the plex enumerator.  When either cuts
        the search short, ``stats.truncated`` is set — capped runs never
        masquerade as complete enumerations.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        k: int,
        memory_edge_budget: int = 5_000_000,
        max_results: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> None:
        self.graph = graph
        self.k = k
        self.memory_edge_budget = memory_edge_budget
        self.max_results = max_results
        self.time_limit = time_limit
        self.stats = InflationStats()

    def enumerate(self) -> List[Biplex]:
        """Run the pipeline; returns ``[]`` with ``stats.truncated`` set when over budget."""
        self.stats = InflationStats()
        projected_edges = inflated_edge_count(self.graph)
        self.stats.inflated_edges = projected_edges
        if projected_edges > self.memory_edge_budget:
            self.stats.truncated = True
            return []
        start = time.perf_counter()
        inflated = inflate(self.graph)
        self.stats.inflation_seconds = time.perf_counter() - start

        start = time.perf_counter()
        plexes, truncated = enumerate_maximal_kplexes_with_status(
            inflated,
            self.k + 1,
            max_results=self.max_results,
            time_limit=self.time_limit,
        )
        self.stats.enumeration_seconds = time.perf_counter() - start
        if truncated:
            self.stats.truncated = True

        n_left = self.graph.n_left
        solutions: List[Biplex] = []
        for plex in plexes:
            left, right = split_vertex_set(frozenset(plex), n_left)
            solutions.append(Biplex.of(left, right))
        return solutions


def enumerate_mbps_inflation(
    graph: BipartiteGraph,
    k: int,
    max_results: Optional[int] = None,
    time_limit: Optional[float] = None,
    memory_edge_budget: int = 5_000_000,
) -> List[Biplex]:
    """Functional wrapper around :class:`FaPlexenPipeline`."""
    pipeline = FaPlexenPipeline(
        graph,
        k,
        memory_edge_budget=memory_edge_budget,
        max_results=max_results,
        time_limit=time_limit,
    )
    return pipeline.enumerate()
