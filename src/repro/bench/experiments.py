"""Per-figure experiment drivers.

Each function reproduces one table or figure of the paper's evaluation
(Section 6) and returns a list of dict rows in the same layout the paper
plots: one row per x-axis value (dataset, k, #results, #vertices, density,
θ, ...) and one column per algorithm/series.  The benchmark modules under
``benchmarks/`` call these functions and print the resulting tables; the CLI
exposes them as ``repro-mbp experiment <name>``.

All workloads are scaled-down stand-ins of the paper's (see
:mod:`repro.analysis.datasets`); the ``REPRO_BENCH_SCALE`` environment
variable grows or shrinks them globally.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence

from ..analysis.datasets import ALL_DATASETS, SMALL_DATASETS, load_dataset
from ..analysis.fraud import FraudStudyConfig, run_fraud_detection_study
from ..baselines.imb import IMB
from ..core.btraversal import BTraversal
from ..core.delay import measure_delay
from ..core.enum_almost_sat import (
    EnumAlmostSatConfig,
    enum_local_solutions,
    enum_local_solutions_inflation,
)
from ..core.itraversal import ITraversal
from ..core.solution_graph import link_passes
from ..graph.bipartite import BipartiteGraph, paper_example_graph
from ..graph.generators import erdos_renyi_bipartite
from .harness import run_algorithms, run_imb, run_itraversal, scaled
from .reporting import INF

DEFAULT_ALGORITHMS = ("iMB", "FaPlexen", "bTraversal", "iTraversal")


# --------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------- #
def experiment_table1() -> List[Dict[str, object]]:
    """Table 1: dataset statistics (stand-ins next to the paper's originals)."""
    from ..analysis.datasets import table1_rows

    return table1_rows()


# --------------------------------------------------------------------- #
# Figure 7 — running time on real datasets
# --------------------------------------------------------------------- #
def experiment_fig7a(
    datasets: Sequence[str] = ALL_DATASETS,
    k: int = 1,
    max_results: Optional[int] = None,
    time_limit: float = 6.0,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
) -> List[Dict[str, object]]:
    """Figure 7(a): running time of the four algorithms across datasets (k=1).

    The paper reports the time to return the first 1000 MBPs; the scaled
    default is 200 × ``REPRO_BENCH_SCALE`` (rounded, at least 1) but capped
    by each algorithm's time limit, after which the INF marker is reported.
    """
    if max_results is None:
        max_results = scaled(200)
    rows: List[Dict[str, object]] = []
    for name in datasets:
        graph = load_dataset(name)
        row: Dict[str, object] = {"dataset": name}
        for measurement in run_algorithms(graph, k, list(algorithms), max_results, time_limit):
            row[measurement.algorithm] = measurement.display
        rows.append(row)
    return rows


def experiment_fig7bc(
    dataset: str = "writer",
    k_values: Sequence[int] = (1, 2, 3, 4),
    max_results: Optional[int] = None,
    time_limit: float = 6.0,
    algorithms: Sequence[str] = ("bTraversal", "iTraversal"),
) -> List[Dict[str, object]]:
    """Figure 7(b)/(c): running time of bTraversal vs iTraversal when varying k."""
    if max_results is None:
        max_results = scaled(200)
    graph = load_dataset(dataset)
    rows: List[Dict[str, object]] = []
    for k in k_values:
        row: Dict[str, object] = {"k": k}
        for measurement in run_algorithms(graph, k, list(algorithms), max_results, time_limit):
            row[measurement.algorithm] = measurement.display
        rows.append(row)
    return rows


def experiment_fig7de(
    dataset: str = "writer",
    k: int = 1,
    result_counts: Sequence[int] = (1, 10, 100, 1000),
    time_limit: float = 6.0,
    algorithms: Sequence[str] = ("bTraversal", "iTraversal"),
) -> List[Dict[str, object]]:
    """Figure 7(d)/(e): running time when varying the number of returned MBPs."""
    graph = load_dataset(dataset)
    rows: List[Dict[str, object]] = []
    for count in result_counts:
        row: Dict[str, object] = {"num_results": count}
        for measurement in run_algorithms(graph, k, list(algorithms), count, time_limit):
            row[measurement.algorithm] = measurement.display
        rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Figure 8 — delay
# --------------------------------------------------------------------- #
def _delay_graphs(max_left: int, max_right: int) -> Dict[str, BipartiteGraph]:
    """Shrunken versions of the small datasets, small enough for full enumeration
    by every baseline (including the exponential-delay ones)."""
    graphs: Dict[str, BipartiteGraph] = {"example": paper_example_graph()}
    for name in SMALL_DATASETS:
        graph = load_dataset(name)
        left = range(min(max_left, graph.n_left))
        right = range(min(max_right, graph.n_right))
        graphs[name] = graph.induced_subgraph(left, right)
    return graphs


def experiment_fig8a(
    k: int = 1,
    max_left: int = 8,
    max_right: int = 12,
    time_limit: float = 15.0,
) -> List[Dict[str, object]]:
    """Figure 8(a): empirical delay of the four algorithms on the small datasets.

    Delay = max gap between consecutive outputs (including start→first and
    last→termination), measured over a *complete* enumeration, which is why
    the graphs are shrunk to ``max_left × max_right`` induced subgraphs.
    """
    rows: List[Dict[str, object]] = []
    for name, graph in _delay_graphs(max_left, max_right).items():
        row: Dict[str, object] = {"dataset": name}
        row["iTraversal"] = _measure_algorithm_delay(
            lambda: ITraversal(graph, k, output_order="alternate").run(), time_limit
        )
        row["iMB"] = _measure_algorithm_delay(
            lambda: IMB(graph, k, time_limit=time_limit).run(), time_limit
        )
        row["FaPlexen"] = _measure_algorithm_delay(
            lambda: _inflation_iterator(graph, k, time_limit), time_limit
        )
        row["bTraversal"] = _measure_algorithm_delay(
            lambda: BTraversal(graph, k, time_limit=time_limit).run(), time_limit
        )
        rows.append(row)
    return rows


def experiment_fig8b(
    dataset: str = "divorce",
    k_values: Sequence[int] = (1, 2, 3, 4),
    max_left: int = 8,
    max_right: int = 12,
    time_limit: float = 15.0,
) -> List[Dict[str, object]]:
    """Figure 8(b): delay when varying k on the Divorce stand-in."""
    graph = load_dataset(dataset).induced_subgraph(range(max_left), range(max_right))
    rows: List[Dict[str, object]] = []
    for k in k_values:
        row: Dict[str, object] = {"k": k}
        row["iMB"] = _measure_algorithm_delay(
            lambda: IMB(graph, k, time_limit=time_limit).run(), time_limit
        )
        row["bTraversal"] = _measure_algorithm_delay(
            lambda: BTraversal(graph, k, time_limit=time_limit).run(), time_limit
        )
        row["FaPlexen"] = _measure_algorithm_delay(
            lambda: _inflation_iterator(graph, k, time_limit), time_limit
        )
        row["iTraversal"] = _measure_algorithm_delay(
            lambda: ITraversal(graph, k, output_order="alternate").run(), time_limit
        )
        rows.append(row)
    return rows


def _inflation_iterator(graph: BipartiteGraph, k: int, time_limit: float):
    from ..baselines.faplexen import FaPlexenPipeline

    pipeline = FaPlexenPipeline(graph, k, time_limit=time_limit)
    return iter(pipeline.enumerate())


def _measure_algorithm_delay(factory, time_limit: float) -> object:
    start = time.perf_counter()
    _, record = measure_delay(factory)
    if time.perf_counter() - start > time_limit:
        return INF
    return record.max_delay


# --------------------------------------------------------------------- #
# Figure 9 — synthetic scalability
# --------------------------------------------------------------------- #
def experiment_fig9a(
    num_vertices_values: Sequence[int] = (200, 400, 800, 1600, 3200),
    edge_density: float = 2.0,
    k: int = 1,
    max_results: Optional[int] = None,
    time_limit: float = 15.0,
    algorithms: Sequence[str] = ("bTraversal", "iTraversal"),
    seed: int = 9,
) -> List[Dict[str, object]]:
    """Figure 9(a): running time on ER graphs when varying the number of vertices.

    The paper sweeps 10 k → 100 M vertices at edge density 10; the scaled
    sweep keeps the same growth pattern (×2 per step) at laptop size.
    """
    if max_results is None:
        max_results = scaled(200)
    rows: List[Dict[str, object]] = []
    for n in num_vertices_values:
        n_left = n // 2
        n_right = n - n_left
        graph = erdos_renyi_bipartite(n_left, n_right, edge_density=edge_density, seed=seed)
        row: Dict[str, object] = {"num_vertices": n}
        for measurement in run_algorithms(graph, k, list(algorithms), max_results, time_limit):
            row[measurement.algorithm] = measurement.display
        rows.append(row)
    return rows


def experiment_fig9b(
    edge_density_values: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
    num_vertices: int = 400,
    k: int = 1,
    max_results: Optional[int] = None,
    time_limit: float = 15.0,
    algorithms: Sequence[str] = ("bTraversal", "iTraversal"),
    seed: int = 10,
) -> List[Dict[str, object]]:
    """Figure 9(b): running time on ER graphs when varying the edge density."""
    if max_results is None:
        max_results = scaled(200)
    rows: List[Dict[str, object]] = []
    n_left = num_vertices // 2
    n_right = num_vertices - n_left
    for density in edge_density_values:
        graph = erdos_renyi_bipartite(n_left, n_right, edge_density=density, seed=seed)
        row: Dict[str, object] = {"edge_density": density}
        for measurement in run_algorithms(graph, k, list(algorithms), max_results, time_limit):
            row[measurement.algorithm] = measurement.display
        rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Figure 10 — large MBP enumeration
# --------------------------------------------------------------------- #
def experiment_fig10(
    dataset: str = "writer",
    k: int = 1,
    theta_values: Sequence[int] = (5, 6, 7, 8),
    time_limit: float = 15.0,
) -> List[Dict[str, object]]:
    """Figure 10: running time of iMB vs iTraversal when enumerating large MBPs.

    Both algorithms run on the graph iTraversal's preprocessing leaves: the
    asymmetric ``(θ_R − k, θ_L − k)``-core plus the bitruss peel
    (:mod:`repro.prep.reduce`), which every large MBP survives.
    """
    graph = load_dataset(dataset)
    rows: List[Dict[str, object]] = []
    for theta in theta_values:
        row: Dict[str, object] = {"theta": theta}

        start = time.perf_counter()
        enumerator = ITraversal(
            graph, k, theta_left=theta, theta_right=theta, time_limit=time_limit
        )
        solutions = enumerator.enumerate()
        elapsed = time.perf_counter() - start
        row["iTraversal"] = INF if enumerator.stats.hit_time_limit else elapsed
        row["num_large_mbps"] = len(solutions)

        core = enumerator.prep.graph
        start = time.perf_counter()
        imb = IMB(core, k, theta_left=theta, theta_right=theta, time_limit=time_limit)
        imb_solutions = imb.enumerate()
        elapsed = time.perf_counter() - start
        row["iMB"] = INF if imb.truncated else elapsed
        row["iMB_num"] = len(imb_solutions)
        rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Figure 11 — solution-graph sparsity and variant running times
# --------------------------------------------------------------------- #
def _solution_graph_inputs(max_left: int, max_right: int) -> Dict[str, BipartiteGraph]:
    """Shrunken small datasets (plus the running example) for the Figure 11 inputs.

    The induced window mixes low vertex ids (where the registry's planted
    dense blocks live) with high ids (sparse power-law background), because a
    window consisting of a single near-complete block has one MBP and a
    degenerate solution graph, while an all-background window has barely any.
    """
    graphs: Dict[str, BipartiteGraph] = {"example": paper_example_graph()}
    for name in SMALL_DATASETS:
        graph = load_dataset(name)
        left_window = _mixed_window(graph.n_left, max_left)
        right_window = _mixed_window(graph.n_right, max_right)
        graphs[name] = graph.induced_subgraph(left_window, right_window)
    return graphs


def _mixed_window(side_size: int, window: int) -> List[int]:
    """Half of the lowest ids plus half of the highest ids of a side."""
    window = min(window, side_size)
    low = window // 2 + window % 2
    high = window - low
    return list(range(low)) + list(range(side_size - high, side_size))


def experiment_fig11ab(
    k: int = 1,
    max_left: int = 7,
    max_right: int = 10,
) -> List[Dict[str, object]]:
    """Figure 11(a)/(b): number of solution-graph links and running time, k = 1.

    Uses shrunken versions of the small datasets because constructing the
    full bTraversal solution graph requires a complete enumeration from
    every solution (quadratic in the number of solutions).  Each graph is
    enumerated once; a ``<label>_time`` column times that column's link
    pass (:func:`~repro.core.solution_graph.link_passes`).
    """
    rows: List[Dict[str, object]] = []
    for name, graph in _solution_graph_inputs(max_left, max_right).items():
        row: Dict[str, object] = {"dataset": name}
        for label, (links, seconds) in link_passes(graph, k).items():
            row[f"{label}_links"] = links
            row[f"{label}_time"] = seconds
        rows.append(row)
    return rows


def experiment_fig11cd(
    dataset: str = "divorce",
    k_values: Sequence[int] = (1, 2, 3),
    max_left: int = 7,
    max_right: int = 10,
) -> List[Dict[str, object]]:
    """Figure 11(c)/(d): solution-graph links and running time when varying k.

    ``dataset`` may also be ``"example"`` to use the paper's running example.
    The columns are those of :func:`experiment_fig11ab`, one node-set
    enumeration per ``k``.
    """
    if dataset == "example":
        graph = paper_example_graph()
    else:
        full = load_dataset(dataset)
        graph = full.induced_subgraph(
            _mixed_window(full.n_left, max_left), _mixed_window(full.n_right, max_right)
        )
    rows: List[Dict[str, object]] = []
    for k in k_values:
        row: Dict[str, object] = {"k": k}
        for label, (links, seconds) in link_passes(graph, k).items():
            row[f"{label}_links"] = links
            row[f"{label}_time"] = seconds
        rows.append(row)
    return rows


def experiment_variant_running_time(
    k: int = 1,
    max_left: int = 7,
    max_right: int = 10,
    time_limit: float = 10.0,
) -> List[Dict[str, object]]:
    """Figure 11(b) companion: end-to-end running time of the iTraversal variants.

    Matches the paper's protocol for Figure 11(b): every variant runs a
    *complete* enumeration (no result cap) on the same small inputs used for
    the link-count measurement, so the denser solution graphs translate
    directly into longer running times.
    """
    rows: List[Dict[str, object]] = []
    for name, graph in _solution_graph_inputs(max_left, max_right).items():
        row: Dict[str, object] = {"dataset": name}
        for variant, label in (
            ("left-anchored-only", "iTraversal-ES-RS"),
            ("no-exclusion", "iTraversal-ES"),
            ("full", "iTraversal"),
        ):
            measurement = run_itraversal(graph, k, None, time_limit, variant=variant)
            row[label] = measurement.display
        # Figure 11 compares the frameworks with the *same* (refined)
        # EnumAlmostSat implementation, as the paper does for fairness.
        from .harness import run_btraversal

        measurement = run_btraversal(graph, k, None, time_limit, local_enumeration="refined")
        row["bTraversal"] = measurement.display
        rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Figure 12 — EnumAlmostSat variants
# --------------------------------------------------------------------- #
def experiment_fig12(
    dataset: str = "writer",
    k_values: Sequence[int] = (1, 2, 3),
    num_trials: Optional[int] = None,
    seed: int = 123,
    time_limit: float = 20.0,
    inflation_time_limit_per_call: float = 0.5,
) -> List[Dict[str, object]]:
    """Figure 12: average running time of the EnumAlmostSat implementations.

    Protocol from the paper: collect the first MBPs with iTraversal, build a
    random almost-satisfying graph from each by adding a random outside left
    vertex, and time each implementation (Inflation and the four L/R
    refinement combinations) over the collection.  Each Inflation call is
    capped at ``inflation_time_limit_per_call`` seconds, so its reported
    average is a *lower bound* — the uncapped baseline is exponentially
    slower, which is exactly what the figure demonstrates.
    """
    if num_trials is None:
        num_trials = scaled(50)
    graph = load_dataset(dataset)
    rng = random.Random(seed)
    rows: List[Dict[str, object]] = []
    for k in k_values:
        solutions = ITraversal(graph, k, max_results=num_trials, time_limit=time_limit).enumerate()
        trials = []
        for solution in solutions:
            outside = [v for v in graph.left_vertices() if v not in solution.left]
            if not outside:
                continue
            trials.append((solution, rng.choice(outside)))
        if not trials:
            continue
        row: Dict[str, object] = {"k": k, "num_trials": len(trials)}
        configs = {
            "L1.0+R1.0": EnumAlmostSatConfig(right_refinement=1, left_refinement=1),
            "L1.0+R2.0": EnumAlmostSatConfig(right_refinement=2, left_refinement=1),
            "L2.0+R1.0": EnumAlmostSatConfig(right_refinement=1, left_refinement=2),
            "L2.0+R2.0": EnumAlmostSatConfig(right_refinement=2, left_refinement=2),
        }
        for label, config in configs.items():
            start = time.perf_counter()
            for solution, vertex in trials:
                list(
                    enum_local_solutions(
                        graph, set(solution.left), set(solution.right), vertex, k, config
                    )
                )
            row[label] = (time.perf_counter() - start) / len(trials)
        start = time.perf_counter()
        for solution, vertex in trials:
            enum_local_solutions_inflation(
                graph,
                set(solution.left),
                set(solution.right),
                vertex,
                k,
                time_limit=inflation_time_limit_per_call,
            )
        row["Inflation"] = (time.perf_counter() - start) / len(trials)
        rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Figure 13 — fraud-detection case study
# --------------------------------------------------------------------- #
def experiment_fig13(config: Optional[FraudStudyConfig] = None) -> List[Dict[str, object]]:
    """Figure 13: precision/recall/F1 of the cohesive structures under a camouflage attack."""
    report = run_fraud_detection_study(config)
    return report.rows()


# --------------------------------------------------------------------- #
# Ablation — left- vs right-anchored traversal
# --------------------------------------------------------------------- #
def experiment_anchor_ablation(
    datasets: Sequence[str] = ("writer", "dblp"),
    k_values: Sequence[int] = (1, 2),
    max_results: Optional[int] = None,
    time_limit: float = 6.0,
) -> List[Dict[str, object]]:
    """Left-anchored vs right-anchored initial solution (Section 6.2 discussion).

    The right-anchored traversal from ``H0' = (L, R0)`` is the left-anchored
    one on the side-swapped graph (Section 3.2).
    """
    if max_results is None:
        max_results = scaled(200)
    rows: List[Dict[str, object]] = []
    for name in datasets:
        graph = load_dataset(name)
        swapped = graph.swap_sides()
        for k in k_values:
            row: Dict[str, object] = {"dataset": name, "k": k}
            left = run_itraversal(graph, k, max_results, time_limit)
            right = run_itraversal(swapped, k, max_results, time_limit)
            row["left-anchored"] = left.display
            row["right-anchored"] = right.display
            rows.append(row)
    return rows


EXPERIMENTS = {
    "table1": experiment_table1,
    "fig7a": experiment_fig7a,
    "fig7bc": experiment_fig7bc,
    "fig7de": experiment_fig7de,
    "fig8a": experiment_fig8a,
    "fig8b": experiment_fig8b,
    "fig9a": experiment_fig9a,
    "fig9b": experiment_fig9b,
    "fig10": experiment_fig10,
    "fig11ab": experiment_fig11ab,
    "fig11cd": experiment_fig11cd,
    "variants": experiment_variant_running_time,
    "fig12": experiment_fig12,
    "fig13": experiment_fig13,
    "anchor": experiment_anchor_ablation,
}
"""Registry used by the CLI (``repro-mbp experiment <name>``)."""
