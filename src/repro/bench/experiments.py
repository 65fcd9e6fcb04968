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

Figures 7 and 9 share one sweep (``_timed_rows``): one row per point, one
cell per algorithm of :data:`~repro.bench.harness.ALGORITHMS`, each timed
and marked by :func:`~repro.bench.harness.measure`.  Figures 8(a) and
8(b) share one delay row.  The Figure 11 drivers and the variants figure
read their columns from
:data:`~repro.core.solution_graph.FIG11_COLUMNS`.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.datasets import ALL_DATASETS, SMALL_DATASETS, load_dataset
from ..analysis.fraud import FraudStudyConfig, run_fraud_detection_study
from ..baselines.faplexen import FaPlexenPipeline
from ..baselines.imb import IMB
from ..core.btraversal import BTraversal
from ..core.delay import measure_delay
from ..core.enum_almost_sat import (
    EnumAlmostSatConfig,
    enum_local_solutions,
    enum_local_solutions_inflation,
)
from ..core.itraversal import ITraversal, TraversalFrontEnd
from ..core.solution_graph import FIG11_COLUMNS, link_passes
from ..core.traversal import TraversalConfig
from ..graph.bipartite import BipartiteGraph, paper_example_graph
from ..graph.generators import erdos_renyi_bipartite
from .harness import ALGORITHMS, measure, scaled, stats_truncated
from .reporting import INF


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
def _timed_rows(
    points: Iterable[Tuple[Dict[str, object], BipartiteGraph, int, int]],
    algorithms: Sequence[str],
    time_limit: float,
) -> List[Dict[str, object]]:
    """The sweep of Figures 7 and 9: one row per ``(head, graph, k, max_results)`` point.

    Each row is ``head`` plus one cell per algorithm, in ``algorithms``
    order.  ``points`` may be lazy, so each graph is loaded or generated
    only when its row runs.
    """
    rows: List[Dict[str, object]] = []
    for head, graph, k, max_results in points:
        row = dict(head)
        for name in algorithms:
            build, cut = ALGORITHMS[name]
            row[name] = measure(build(graph, k, max_results, time_limit), cut, max_results).display
        rows.append(row)
    return rows


def experiment_fig7a(
    datasets: Sequence[str] = ALL_DATASETS,
    k: int = 1,
    max_results: Optional[int] = None,
    time_limit: float = 6.0,
    algorithms: Sequence[str] = tuple(ALGORITHMS),
) -> List[Dict[str, object]]:
    """Figure 7(a): running time of the four algorithms across datasets (k=1).

    The paper reports the time to return the first 1000 MBPs; the scaled
    default is 200 × ``REPRO_BENCH_SCALE`` (rounded, at least 1) but capped
    by each algorithm's time limit, after which the INF marker is reported.
    """
    if max_results is None:
        max_results = scaled(200)
    points = (({"dataset": name}, load_dataset(name), k, max_results) for name in datasets)
    return _timed_rows(points, algorithms, time_limit)


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
    points = (({"k": k}, graph, k, max_results) for k in k_values)
    return _timed_rows(points, algorithms, time_limit)


def experiment_fig7de(
    dataset: str = "writer",
    k: int = 1,
    result_counts: Sequence[int] = (1, 10, 100, 1000),
    time_limit: float = 6.0,
    algorithms: Sequence[str] = ("bTraversal", "iTraversal"),
) -> List[Dict[str, object]]:
    """Figure 7(d)/(e): running time when varying the number of returned MBPs."""
    graph = load_dataset(dataset)
    points = (({"num_results": count}, graph, k, count) for count in result_counts)
    return _timed_rows(points, algorithms, time_limit)


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


def _delay_row(
    head: Dict[str, object], graph: BipartiteGraph, k: int, time_limit: float
) -> Dict[str, object]:
    """One row of Figure 8: ``head`` plus each algorithm's delay on ``graph``.

    Delay = max gap between consecutive outputs (including start→first and
    last→termination), measured over a *complete* enumeration; a run that
    takes longer than ``time_limit`` reads INF.
    """
    streams = {
        "iMB": lambda: IMB(graph, k, time_limit=time_limit).run(),
        "FaPlexen": lambda: iter(FaPlexenPipeline(graph, k, time_limit=time_limit).enumerate()),
        "bTraversal": lambda: BTraversal(graph, k, time_limit=time_limit).run(),
        "iTraversal": lambda: ITraversal(graph, k, output_order="alternate").run(),
    }
    row = dict(head)
    for name, stream in streams.items():
        start = time.perf_counter()
        _, record = measure_delay(stream)
        row[name] = INF if time.perf_counter() - start > time_limit else record.max_delay
    return row


def experiment_fig8a(
    k: int = 1,
    max_left: int = 8,
    max_right: int = 12,
    time_limit: float = 15.0,
) -> List[Dict[str, object]]:
    """Figure 8(a): empirical delay of the four algorithms on the small datasets.

    The delay is measured over a complete enumeration, which is why the
    graphs are shrunk to ``max_left × max_right`` induced subgraphs.
    """
    return [
        _delay_row({"dataset": name}, graph, k, time_limit)
        for name, graph in _delay_graphs(max_left, max_right).items()
    ]


def experiment_fig8b(
    dataset: str = "divorce",
    k_values: Sequence[int] = (1, 2, 3, 4),
    max_left: int = 8,
    max_right: int = 12,
    time_limit: float = 15.0,
) -> List[Dict[str, object]]:
    """Figure 8(b): delay when varying k on the Divorce stand-in."""
    graph = load_dataset(dataset).induced_subgraph(range(max_left), range(max_right))
    return [_delay_row({"k": k}, graph, k, time_limit) for k in k_values]


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
    points = (
        (
            {"num_vertices": n},
            erdos_renyi_bipartite(n // 2, n - n // 2, edge_density=edge_density, seed=seed),
            k,
            max_results,
        )
        for n in num_vertices_values
    )
    return _timed_rows(points, algorithms, time_limit)


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
    n_left = num_vertices // 2
    n_right = num_vertices - n_left
    points = (
        (
            {"edge_density": density},
            erdos_renyi_bipartite(n_left, n_right, edge_density=density, seed=seed),
            k,
            max_results,
        )
        for density in edge_density_values
    )
    return _timed_rows(points, algorithms, time_limit)


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


def _link_row(head: Dict[str, object], graph: BipartiteGraph, k: int) -> Dict[str, object]:
    """One row of Figure 11: ``head`` plus each column's links and link-pass seconds."""
    row = dict(head)
    for label, (links, seconds) in link_passes(graph, k).items():
        row[f"{label}_links"] = links
        row[f"{label}_time"] = seconds
    return row


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
    return [
        _link_row({"dataset": name}, graph, k)
        for name, graph in _solution_graph_inputs(max_left, max_right).items()
    ]


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
    return [_link_row({"k": k}, graph, k) for k in k_values]


def experiment_variant_running_time(
    k: int = 1,
    max_left: int = 7,
    max_right: int = 10,
    time_limit: float = 10.0,
) -> List[Dict[str, object]]:
    """Figure 11(b) companion: end-to-end running time of the four traversals.

    Matches the paper's protocol for Figure 11(b): every column of
    :data:`~repro.core.solution_graph.FIG11_COLUMNS` runs a *complete*
    enumeration (no result cap) on the same small inputs used for the
    link-count measurement, so the denser solution graphs translate
    directly into longer running times.
    """
    rows: List[Dict[str, object]] = []
    for name, graph in _solution_graph_inputs(max_left, max_right).items():
        row: Dict[str, object] = {"dataset": name}
        for variant, label in FIG11_COLUMNS:
            # Every traversal, bTraversal included, runs the same refined
            # EnumAlmostSat: the paper's fair comparison (Figure 7's
            # bTraversal inflates instead).
            config = TraversalConfig(
                variant=variant, time_limit=time_limit, local_enumeration="refined"
            )
            row[label] = measure(TraversalFrontEnd(graph, k, config), stats_truncated).display
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
    build, cut = ALGORITHMS["iTraversal"]
    rows: List[Dict[str, object]] = []
    for name in datasets:
        graph = load_dataset(name)
        swapped = graph.swap_sides()
        for k in k_values:
            row: Dict[str, object] = {"dataset": name, "k": k}
            for label, anchored in (("left-anchored", graph), ("right-anchored", swapped)):
                run = build(anchored, k, max_results, time_limit)
                row[label] = measure(run, cut, max_results).display
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
