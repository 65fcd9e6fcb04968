"""Timing harness shared by the experiment drivers.

The paper's evaluation protocol is: run each algorithm with a wall-clock
limit (``INF`` = 24 hours) and a memory budget (``OUT`` = 32 GB) and report
the time to return the first N maximal k-biplexes (N = 1000 by default,
following the protocol of Berlowitz et al.).  The harness below reproduces
that protocol at laptop scale: every algorithm invocation gets a configurable
time limit and reports either its elapsed seconds or the ``INF``/``OUT``
marker.

The harness times single runs for the experiment tables; it keeps no
history.  Wall time across commits is judged by the repository benchmark
(``perfbench/run.py``, declared in ``BENCHMARK.json``), and the exact output
of the prep ablation is pinned by ``tests/test_prep.py``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..baselines.faplexen import FaPlexenPipeline
from ..baselines.imb import IMB
from ..core.btraversal import BTraversal
from ..core.itraversal import ITraversal
from ..graph.bipartite import BipartiteGraph
from .reporting import INF, OUT


def bench_scale() -> float:
    """Global scale knob for benchmark workloads.

    Set the environment variable ``REPRO_BENCH_SCALE`` to a float to grow or
    shrink every benchmark workload (default 1.0).  The benchmark modules
    multiply their dataset sizes / result counts by this factor, so a CI run
    can use ``0.5`` while a faithful-shape run uses ``2`` or more.
    """
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


def scaled(value: int, minimum: int = 1) -> int:
    """Scale an integer workload parameter by :func:`bench_scale`."""
    return max(minimum, int(round(value * bench_scale())))


@dataclass
class Measurement:
    """Result of timing one algorithm on one workload."""

    algorithm: str
    seconds: Optional[float]
    num_solutions: int = 0
    marker: Optional[str] = None

    @property
    def display(self) -> object:
        """Seconds, or the INF/OUT marker for the report table.

        A measurement without seconds *and* without a marker (a run that
        never produced a timing) renders as the paper's ``INF`` marker
        rather than leaking ``None`` into the report tables.
        """
        if self.marker:
            return self.marker
        if self.seconds is None:
            return INF
        return self.seconds


def time_call(function: Callable[[], object], label: str = "") -> Measurement:
    """Time a single call; the callable returns the solutions (or None).

    Lazy return values (generators / arbitrary iterables) are materialised
    *inside* the timed window — consuming them is part of the algorithm's
    work — so ``num_solutions`` reflects the real output count instead of
    silently reporting 0 for anything that is not already a list.
    """
    start = time.perf_counter()
    result = function()
    sized = hasattr(result, "__len__")
    if result is not None and not sized:
        try:
            result = list(result)
        except TypeError:
            result = None
        else:
            sized = True
    elapsed = time.perf_counter() - start
    count = len(result) if sized and not isinstance(result, (str, bytes)) else 0
    return Measurement(algorithm=label, seconds=elapsed, num_solutions=count)


# --------------------------------------------------------------------- #
# Standard algorithm runners used across experiments
# --------------------------------------------------------------------- #
def run_itraversal(
    graph: BipartiteGraph,
    k: int,
    max_results: Optional[int],
    time_limit: float,
    variant: str = "full",
    jobs: Optional[int] = None,
) -> Measurement:
    """Time iTraversal (or one of its variants) for the first ``max_results`` MBPs.

    ``jobs`` selects the sharded parallel engine; the timed window spans
    ``enumerate()``, which includes the worker-pool spin-up, the streaming
    merge and the final ordering — pool management is part of the parallel
    algorithm's cost, not harness overhead.  The INF marker reads the
    *merged* stats, so a deadline hit inside any worker (or the
    coordinator) marks the measurement correctly.
    """
    algorithm = ITraversal(
        graph,
        k,
        variant=variant,
        max_results=max_results,
        time_limit=time_limit,
        jobs=jobs,
    )
    start = time.perf_counter()
    solutions = algorithm.enumerate()
    elapsed = time.perf_counter() - start
    marker = INF if algorithm.stats.hit_time_limit else None
    return Measurement("iTraversal", None if marker else elapsed, len(solutions), marker)


def run_btraversal(
    graph: BipartiteGraph,
    k: int,
    max_results: Optional[int],
    time_limit: float,
    local_enumeration: str = "inflation",
    jobs: Optional[int] = None,
) -> Measurement:
    """Time bTraversal for the first ``max_results`` MBPs.

    The default ``local_enumeration="inflation"`` matches the paper's
    Figure 7 baseline (bTraversal with an inflation-based EnumAlmostSat);
    pass ``"refined"`` for the Figure 11 fair-comparison setting.
    ``jobs`` selects the sharded parallel engine (timed end to end, as in
    :func:`run_itraversal`).
    """
    algorithm = BTraversal(
        graph,
        k,
        max_results=max_results,
        time_limit=time_limit,
        local_enumeration=local_enumeration,
        jobs=jobs,
    )
    start = time.perf_counter()
    solutions = algorithm.enumerate()
    elapsed = time.perf_counter() - start
    marker = INF if algorithm.stats.hit_time_limit else None
    return Measurement("bTraversal", None if marker else elapsed, len(solutions), marker)


def run_imb(
    graph: BipartiteGraph,
    k: int,
    max_results: Optional[int],
    time_limit: float,
    theta_left: int = 0,
    theta_right: int = 0,
) -> Measurement:
    """Time iMB for the first ``max_results`` MBPs (optionally with size thresholds)."""
    algorithm = IMB(
        graph,
        k,
        theta_left=theta_left,
        theta_right=theta_right,
        max_results=max_results,
        time_limit=time_limit,
    )
    start = time.perf_counter()
    solutions = algorithm.enumerate()
    elapsed = time.perf_counter() - start
    marker = INF if algorithm.truncated and (max_results is None or len(solutions) < max_results) else None
    return Measurement("iMB", None if marker else elapsed, len(solutions), marker)


def run_inflation(
    graph: BipartiteGraph,
    k: int,
    max_results: Optional[int],
    time_limit: float,
    memory_edge_budget: int = 2_000_000,
) -> Measurement:
    """Time the FaPlexen-style inflation pipeline; reports OUT over the edge budget."""
    pipeline = FaPlexenPipeline(
        graph,
        k,
        memory_edge_budget=memory_edge_budget,
        max_results=max_results,
        time_limit=time_limit,
    )
    start = time.perf_counter()
    solutions = pipeline.enumerate()
    elapsed = time.perf_counter() - start
    if pipeline.stats.truncated and pipeline.stats.inflated_edges > memory_edge_budget:
        marker: Optional[str] = OUT
    elif pipeline.stats.truncated or (
        max_results is not None and len(solutions) < max_results and elapsed > time_limit
    ):
        marker = INF
    else:
        marker = None
    return Measurement("FaPlexen", None if marker else elapsed, len(solutions), marker)


ALGORITHM_RUNNERS = {
    "iMB": run_imb,
    "FaPlexen": run_inflation,
    "bTraversal": run_btraversal,
    "iTraversal": run_itraversal,
}
"""The four algorithms compared throughout Section 6.1, in the paper's order."""


def run_algorithms(
    graph: BipartiteGraph,
    k: int,
    algorithms: List[str],
    max_results: Optional[int],
    time_limit: float,
) -> List[Measurement]:
    """Run the selected algorithms on one workload and collect measurements."""
    measurements = []
    for name in algorithms:
        runner = ALGORITHM_RUNNERS[name]
        measurement = runner(graph, k, max_results, time_limit)
        measurement.algorithm = name
        measurements.append(measurement)
    return measurements

