"""Graph substrates: bipartite graphs, general graphs, generators, cores, I/O."""

from .bipartite import BipartiteGraph, Side, freeze, paper_example_graph, sorted_tuple
from .cores import alpha_beta_core, alpha_beta_core_subgraph, theta_core_for_large_mbps
from .dynamic import (
    AlphaBetaCoreIndex,
    ButterflyIndex,
    DynamicGraphIndex,
    recomputed_oracle,
)
from .general import Graph
from .generators import (
    FraudInjection,
    erdos_renyi_bipartite,
    planted_biplex_graph,
    planted_biplex_graph_with_blocks,
    power_law_bipartite,
    review_graph_with_camouflage,
)
from .inflate import inflate, inflated_edge_count, join_vertex_sets, split_vertex_set
from .io import read_edge_list, read_konect, write_edge_list, write_konect
from .protocol import BipartiteSubstrate, iter_bits, mask_of

__all__ = [
    "BipartiteGraph",
    "BipartiteSubstrate",
    "iter_bits",
    "mask_of",
    "Side",
    "Graph",
    "FraudInjection",
    "freeze",
    "sorted_tuple",
    "paper_example_graph",
    "erdos_renyi_bipartite",
    "power_law_bipartite",
    "planted_biplex_graph",
    "planted_biplex_graph_with_blocks",
    "review_graph_with_camouflage",
    "alpha_beta_core",
    "alpha_beta_core_subgraph",
    "theta_core_for_large_mbps",
    "AlphaBetaCoreIndex",
    "ButterflyIndex",
    "DynamicGraphIndex",
    "recomputed_oracle",
    "inflate",
    "inflated_edge_count",
    "split_vertex_set",
    "join_vertex_sets",
    "read_edge_list",
    "read_konect",
    "write_edge_list",
    "write_konect",
]
