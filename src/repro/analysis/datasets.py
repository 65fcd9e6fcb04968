"""Dataset registry: synthetic stand-ins for the paper's real datasets.

Table 1 of the paper lists ten real bipartite graphs from http://konect.cc,
ranging from Divorce (9 × 50, 225 edges) to Google (17 M × 3.1 M, 14.7 M
edges).  The raw files are not redistributable here and a pure-Python
enumerator cannot traverse the larger ones anyway (repro band: "interpreter
too slow for enumeration benchmarks at paper scale"), so the registry below
provides *scaled* synthetic stand-ins:

* the two side sizes and the edge count are scaled down by a per-dataset
  factor while (approximately) preserving the edge density and the left/right
  size ratio of the original;
* edges follow a power-law degree distribution (real KONECT graphs are
  heavy-tailed), with a small number of planted near-biplex blocks so that
  the enumeration algorithms encounter non-trivial dense structure, as they
  do on the real data.

Every experiment driver addresses datasets by the names used in the paper
(``divorce``, ``cfat``, ..., ``google``), so benchmark output rows line up
with the paper's figures one-for-one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graph.bipartite import BipartiteGraph
from ..graph.generators import planted_biplex_graph_with_blocks, power_law_bipartite


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one registry dataset.

    ``paper_n_left``, ``paper_n_right`` and ``paper_edges`` record the real
    dataset's statistics from Table 1 (for documentation and for the Table 1
    reproduction); ``n_left``, ``n_right`` and ``num_edges`` are the scaled
    stand-in actually generated.
    """

    name: str
    category: str
    paper_n_left: int
    paper_n_right: int
    paper_edges: int
    n_left: int
    n_right: int
    num_edges: int
    planted_blocks: int = 2
    block_size: Tuple[int, int] = (6, 6)
    seed: int = 7

    @property
    def scale_factor(self) -> float:
        """How much smaller the stand-in is than the real dataset (vertex count)."""
        real = self.paper_n_left + self.paper_n_right
        ours = self.n_left + self.n_right
        return real / ours if ours else float("inf")

    @property
    def edge_density(self) -> float:
        """Edge density ``|E| / (|L| + |R|)`` of the stand-in."""
        return self.num_edges / (self.n_left + self.n_right)


# The paper's Table 1, with scaled generation parameters.  Sizes keep the
# ordering of dataset difficulty at pure-Python scale.  Serial iTraversal
# (k=1, bitset) takes 0.9 s (divorce) to 17 s (writer, dblp) for the "first
# 1000 MBPs" run on a 2-core x86 box under Python 3.11; google reaches
# about 400 MBPs in 20 s.
_SPECS: Tuple[DatasetSpec, ...] = (
    DatasetSpec("divorce", "HumanSocial", 9, 50, 225, 9, 50, 225, 1, (5, 8), 11),
    DatasetSpec("cfat", "Miscellaneous", 100, 100, 802, 50, 50, 400, 2, (6, 6), 12),
    DatasetSpec("crime", "Social", 551, 829, 1476, 70, 100, 190, 2, (5, 6), 13),
    DatasetSpec("opsahl", "Authorship", 2865, 4558, 16910, 90, 130, 450, 2, (6, 6), 14),
    DatasetSpec("marvel", "Collaboration", 19428, 6486, 96662, 130, 50, 650, 2, (6, 6), 15),
    DatasetSpec("writer", "Affiliation", 89356, 46213, 144340, 160, 80, 400, 2, (6, 6), 16),
    DatasetSpec("actors", "Affiliation", 392400, 127823, 1470404, 190, 70, 950, 3, (6, 6), 17),
    DatasetSpec("imdb", "Communication", 428440, 896308, 3782463, 140, 250, 1000, 3, (6, 6), 18),
    DatasetSpec("dblp", "Authorship", 1425813, 4000150, 8649016, 180, 420, 950, 3, (6, 6), 19),
    DatasetSpec("google", "Hyperlink", 17091929, 3108141, 14693125, 550, 110, 550, 3, (6, 6), 20),
)

SMALL_DATASETS: Tuple[str, ...] = ("divorce", "cfat", "crime", "opsahl")
"""The four small datasets used for the delay and solution-graph experiments."""

ALL_DATASETS: Tuple[str, ...] = tuple(spec.name for spec in _SPECS)
"""All registry names in the paper's Table 1 order."""


def dataset_specs() -> Dict[str, DatasetSpec]:
    """Mapping from dataset name to its specification."""
    return {spec.name: spec for spec in _SPECS}


def get_spec(name: str) -> DatasetSpec:
    """Specification of one dataset; raises ``KeyError`` for unknown names."""
    specs = dataset_specs()
    key = name.lower()
    if key not in specs:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(specs)}")
    return specs[key]


def load_dataset(name: str, seed: Optional[int] = None) -> BipartiteGraph:
    """Generate the stand-in graph for dataset ``name``.

    The generation is deterministic for a given ``seed`` (defaulting to the
    spec's seed), so repeated benchmark runs see identical graphs.  The
    graph is handed out at epoch 0, like every other freshly built graph.
    """
    spec = get_spec(name)
    rng_seed = spec.seed if seed is None else seed
    block_left, block_right = spec.block_size
    planted, _ = planted_biplex_graph_with_blocks(
        spec.n_left,
        spec.n_right,
        block_left=min(block_left, spec.n_left),
        block_right=min(block_right, spec.n_right),
        k=1,
        background_edges=0,
        num_blocks=min(spec.planted_blocks, max(1, spec.n_left // max(block_left, 1))),
        seed=rng_seed,
    )
    remaining = max(spec.num_edges - planted.num_edges, 0)
    background = power_law_bipartite(
        spec.n_left, spec.n_right, remaining, exponent=1.6, seed=rng_seed + 1
    )
    merged = planted
    for left_vertex, right_vertex in background.edges():
        merged.add_edge(left_vertex, right_vertex)
    # The merge is construction, not mutation.
    merged.reset_epoch()
    return merged


def table1_rows(include_paper_stats: bool = True) -> List[Dict[str, object]]:
    """Rows of the Table 1 reproduction.

    Each row reports the stand-in's measured statistics next to the paper's
    original numbers, so the scale-down factor is explicit in the output.
    """
    rows: List[Dict[str, object]] = []
    for name in ALL_DATASETS:
        spec = get_spec(name)
        graph = load_dataset(name)
        row: Dict[str, object] = {
            "name": spec.name,
            "category": spec.category,
            "|L|": graph.n_left,
            "|R|": graph.n_right,
            "|E|": graph.num_edges,
            "edge_density": round(graph.edge_density, 3),
        }
        if include_paper_stats:
            row.update(
                {
                    "paper_|L|": spec.paper_n_left,
                    "paper_|R|": spec.paper_n_right,
                    "paper_|E|": spec.paper_edges,
                    "scale_factor": round(spec.scale_factor, 1),
                }
            )
        rows.append(row)
    return rows
