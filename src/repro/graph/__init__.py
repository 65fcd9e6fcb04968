"""Graph substrates: bipartite graphs, general graphs, generators, cores, I/O."""

from .bipartite import BipartiteGraph, paper_example_graph
from .cores import alpha_beta_core
from .general import Graph
from .generators import (
    FraudInjection,
    erdos_renyi_bipartite,
    planted_biplex_graph,
    planted_biplex_graph_with_blocks,
    power_law_bipartite,
    review_graph_with_camouflage,
)
from .inflate import inflate, inflated_edge_count, split_vertex_set
from .io import read_edge_list, read_konect, write_edge_list, write_konect
from .protocol import iter_bits, mask_of

__all__ = [
    "BipartiteGraph",
    "iter_bits",
    "mask_of",
    "Graph",
    "FraudInjection",
    "paper_example_graph",
    "erdos_renyi_bipartite",
    "power_law_bipartite",
    "planted_biplex_graph",
    "planted_biplex_graph_with_blocks",
    "review_graph_with_camouflage",
    "alpha_beta_core",
    "inflate",
    "inflated_edge_count",
    "split_vertex_set",
    "read_edge_list",
    "read_konect",
    "write_edge_list",
    "write_konect",
]
