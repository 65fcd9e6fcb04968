"""Timing harness shared by the experiment drivers.

The paper's evaluation protocol (Section 6.1) is: run each algorithm with
a wall-clock limit (``INF`` = 24 hours) and a memory budget (``OUT`` =
32 GB) and report the time to return the first N maximal k-biplexes
(N = 1000 by default, following the protocol of Berlowitz et al.).  The
harness reproduces that protocol at laptop scale:

* :data:`ALGORITHMS` is the one table of the four algorithms Section 6.1
  compares: iMB, FaPlexen, bTraversal and iTraversal.  Each entry says how
  the algorithm is built for ``(graph, k, max_results, time_limit)`` and
  how its run reports being cut.
* :func:`measure` times one built run and decides its cell, the one
  INF/OUT rule: ``OUT`` when a FaPlexen pipeline's inflated graph exceeds
  its edge budget (:data:`~repro.baselines.faplexen.MEMORY_EDGE_BUDGET`),
  ``INF`` when the run was cut before ``max_results``, and its seconds
  otherwise.

The timed figures build their algorithms from the table alone.  The
variants figure builds its four traversals itself (a refined bTraversal,
Figure 11's fair comparison, among them) and marks them through the same
:func:`measure`.

The harness times single runs for the experiment tables; it keeps no
history.  Wall time across commits is judged by the repository benchmark
(``perfbench/run.py``, declared in ``BENCHMARK.json``), and the exact output
of the prep ablation is pinned by ``tests/test_prep.py``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..baselines.faplexen import FaPlexenPipeline
from ..baselines.imb import IMB
from ..core.btraversal import BTraversal
from ..core.itraversal import ITraversal
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


def stats_truncated(run: Any) -> bool:
    """How FaPlexen and the traversals report a cut run: ``run.stats.truncated``."""
    return run.stats.truncated


ALGORITHMS: Dict[str, Tuple[Callable[..., Any], Callable[[Any], bool]]] = {
    "iMB": (
        lambda graph, k, n, limit: IMB(graph, k, max_results=n, time_limit=limit),
        lambda run: run.truncated,
    ),
    "FaPlexen": (
        lambda graph, k, n, limit: FaPlexenPipeline(graph, k, max_results=n, time_limit=limit),
        stats_truncated,
    ),
    # Figure 7's baseline: bTraversal with an inflation-based EnumAlmostSat.
    "bTraversal": (
        lambda graph, k, n, limit: BTraversal(
            graph, k, max_results=n, time_limit=limit, local_enumeration="inflation"
        ),
        stats_truncated,
    ),
    "iTraversal": (
        lambda graph, k, n, limit: ITraversal(graph, k, max_results=n, time_limit=limit),
        stats_truncated,
    ),
}
"""The four algorithms compared throughout Section 6.1, in the paper's order.

Each name maps to ``(build, cut)``: ``build(graph, k, max_results,
time_limit)`` returns a run whose ``enumerate()`` returns its MBPs, up to
those caps, and ``cut(run)`` says whether the finished run stopped at a
cap (its output may be incomplete)."""


def measure(
    run: Any, cut: Callable[[Any], bool], max_results: Optional[int] = None
) -> Measurement:
    """Time ``run.enumerate()`` and decide its cell: the one INF/OUT rule.

    ``OUT`` marks a FaPlexen pipeline whose inflated graph exceeds its edge
    budget (it built nothing).  ``INF`` marks a run that ``cut`` reports
    stopped at a cap with fewer than ``max_results`` MBPs (with any cap
    when ``max_results`` is ``None``); a run that stops *at*
    ``max_results`` has returned its first N and reads seconds.  Building
    the run stays outside the timed window; a parallel run's window spans
    its worker pool, and ``cut`` reads its merged stats.
    """
    start = time.perf_counter()
    solutions = run.enumerate()
    elapsed = time.perf_counter() - start
    marker: Optional[str] = None
    if isinstance(run, FaPlexenPipeline) and run.stats.inflated_edges > run.memory_edge_budget:
        marker = OUT
    elif cut(run) and (max_results is None or len(solutions) < max_results):
        marker = INF
    return Measurement(None if marker else elapsed, len(solutions), marker)
