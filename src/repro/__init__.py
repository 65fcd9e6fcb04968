"""repro — a reproduction of "Efficient Algorithms for Maximal k-Biplex Enumeration" (SIGMOD 2022).

The package enumerates all maximal k-biplexes (MBPs) of a bipartite graph
with the paper's iTraversal reverse-search algorithm, and ships every
baseline, dataset generator and experiment harness needed to regenerate the
paper's tables and figures at laptop scale.

Quickstart
----------
>>> from repro import BipartiteGraph, enumerate_mbps
>>> graph = BipartiteGraph(2, 2, edges=[(0, 0), (0, 1), (1, 0)])
>>> solutions, stats = enumerate_mbps(graph, k=1)
>>> stats.num_reported == len(solutions)
True
"""

from .core import (
    Biplex,
    BTraversal,
    CursorError,
    EnumerationSession,
    ITraversal,
    TraversalConfig,
    TraversalStats,
    enumerate_mbps,
    is_k_biplex,
    is_maximal_k_biplex,
)
from .graph import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    paper_example_graph,
    planted_biplex_graph,
    read_edge_list,
    review_graph_with_camouflage,
    write_edge_list,
)
from .parallel import JOBS_ENV_VAR, resolve_jobs

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Biplex",
    "BipartiteGraph",
    "ITraversal",
    "BTraversal",
    "CursorError",
    "EnumerationSession",
    "TraversalConfig",
    "TraversalStats",
    "enumerate_mbps",
    "is_k_biplex",
    "is_maximal_k_biplex",
    "paper_example_graph",
    "erdos_renyi_bipartite",
    "planted_biplex_graph",
    "review_graph_with_camouflage",
    "read_edge_list",
    "write_edge_list",
    "JOBS_ENV_VAR",
    "resolve_jobs",
]
