"""Maximal biclique enumeration.

A biclique is a complete bipartite subgraph — equivalently a 0-biplex — so
maximal bicliques are enumerated with the same include/exclude
branch-and-bound as :class:`repro.baselines.imb.IMB` instantiated with
``k = 0``.  Bicliques are one of the competitor structures of the
fraud-detection case study (Figure 13), where the paper shows that their
all-edges-present requirement makes the recall collapse as soon as the
attackers omit a few edges.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.biplex import Biplex
from ..graph.bipartite import BipartiteGraph
from .imb import IMB


def enumerate_maximal_bicliques(
    graph: BipartiteGraph,
    theta_left: int = 1,
    theta_right: int = 1,
    max_results: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> List[Biplex]:
    """Enumerate maximal bicliques with at least ``theta_left`` / ``theta_right`` vertices per side.

    The default thresholds of 1 exclude the degenerate one-sided bicliques;
    the case study uses larger thresholds (e.g. 4 users × 3-7 products).
    """
    enumerator = IMB(
        graph,
        k=0,
        theta_left=theta_left,
        theta_right=theta_right,
        max_results=max_results,
        time_limit=time_limit,
    )
    return enumerator.enumerate()


def is_biclique(graph: BipartiteGraph, left, right) -> bool:
    """Whether every left-right pair of the induced subgraph is an edge."""
    return all(graph.has_edge(v, u) for v in left for u in right)

