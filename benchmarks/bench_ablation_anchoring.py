"""Ablations — anchoring side and the preprocessing pipeline.

Two ablation families share this module:

* *Anchoring* (Section 6.2): left-anchored vs right-anchored initial
  solution.  Expected shape (paper): the two symmetric options perform
  similarly, with no side dominating across datasets.
* *Preprocessing* (:mod:`repro.prep`): ``prep ∈ {off, core, core+order}``
  on thresholded enumerations.  Every row asserts that all three modes
  enumerate the *identical* solution set (compared as sorted canonical
  key lists).  The full-size run also gates the (α, β)-core / bitruss
  *reduction*: ``core+order`` must run at least 1.2x faster than ``off``
  on at least one large sparse configuration, the regime where the
  reduction strips most of the background before the traversal starts
  (both ``core`` modes reduce, so the planted rows clear it by orders of
  magnitude).  The degeneracy *ordering*'s own serial effect is the
  ungated ``speedup_order_over_core`` column (``core`` time over
  ``core+order`` time; below 1 means the ordering made the run slower).

Runnable standalone (``python benchmarks/bench_ablation_anchoring.py``) or
via pytest-benchmark.  Set ``REPRO_BENCH_TINY=1`` for smoke-test sizes
(used by CI).
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__":  # standalone run: mirror conftest's path setup
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.core import ITraversal
from repro.graph import erdos_renyi_bipartite, planted_biplex_graph

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
PREPS_COMPARED = ("off", "core", "core+order")
PREP_SPEEDUP_TARGET = 1.2

#: (name, graph factory thunk, k, theta) — thresholded configs where the
#: reduction has something to peel.  The planted configs hide small dense
#: blocks in a sparse background; the ER config is sparse enough that the
#: (θ−k)-core strips a meaningful fringe.
PREP_BENCH_CONFIGS = (
    (
        "planted-150x150-b8-theta5",
        lambda: planted_biplex_graph(
            150, 150, block_left=8, block_right=8, k=1, background_edges=450, seed=61
        ),
        1,
        5,
    ),
    (
        "planted-80x80-b6-theta4",
        lambda: planted_biplex_graph(
            80, 80, block_left=6, block_right=6, k=1, background_edges=160, seed=62
        ),
        1,
        4,
    ),
    (
        "er-40x30-theta3",
        lambda: erdos_renyi_bipartite(40, 30, num_edges=120, seed=63),
        1,
        3,
    ),
)
TINY_PREP_CONFIGS = (
    (
        "planted-30x30-b5-theta4",
        lambda: planted_biplex_graph(
            30, 30, block_left=5, block_right=5, k=1, background_edges=40, seed=61
        ),
        1,
        4,
    ),
)


def run_prep_ablation(configs=None):
    """One row per config: wall-clock per prep mode and two speedups.

    ``speedup_core_order`` (``off`` over ``core+order``) is what the
    reduction buys; ``speedup_order_over_core`` (``core`` over
    ``core+order``) is what the ordering adds on top of it.

    Asserts on every row that the three prep modes enumerate the identical
    solution set — the ablation is only meaningful if it is an ablation of
    *speed*, never of output.
    """
    if configs is None:
        configs = TINY_PREP_CONFIGS if TINY else PREP_BENCH_CONFIGS
    rows = []
    for name, factory, k, theta in configs:
        graph = factory()
        seconds = {}
        keys = {}
        removed = (0, 0, 0)
        for prep in PREPS_COMPARED:
            algorithm = ITraversal(graph, k, theta_left=theta, theta_right=theta, prep=prep)
            start = time.perf_counter()
            keys[prep] = sorted(solution.key() for solution in algorithm.enumerate())
            seconds[prep] = time.perf_counter() - start
            if prep != "off":
                plan = algorithm.prep
                removed = (plan.removed_left, plan.removed_right, plan.removed_edges)
        for prep in PREPS_COMPARED[1:]:
            assert keys[prep] == keys["off"], (
                f"prep={prep} must enumerate the identical solution set ({name})"
            )
        rows.append(
            {
                "config": name,
                "k": k,
                "theta": theta,
                "num_solutions": len(keys["off"]),
                "removed_left": removed[0],
                "removed_right": removed[1],
                "removed_edges": removed[2],
                "off_seconds": seconds["off"],
                "core_seconds": seconds["core"],
                "core_order_seconds": seconds["core+order"],
                "speedup_core_order": _speedup(seconds["off"], seconds["core+order"]),
                "speedup_order_over_core": _speedup(seconds["core"], seconds["core+order"]),
            }
        )
    return rows


def _speedup(baseline_seconds: float, seconds: float) -> float:
    return baseline_seconds / seconds if seconds else float("inf")


def _assert_prep_speedup_target(rows):
    """The reduction's gate: >= 1.2x for core+order over off on one row.

    Checked on the full-size run.  It gates the (α, β)-core / bitruss
    reduction, which ``core`` runs too; the ordering's own effect is the
    ungated ``speedup_order_over_core`` column.
    """
    speedups = [row["speedup_core_order"] for row in rows]
    assert max(speedups) >= PREP_SPEEDUP_TARGET, (
        f"the core/bitruss reduction (prep=core+order vs prep=off) must reach "
        f">= {PREP_SPEEDUP_TARGET}x on at least one large sparse configuration, "
        f"got speedups {speedups}"
    )


def test_anchor_ablation(benchmark):
    from conftest import run_once

    from repro.bench.experiments import experiment_anchor_ablation
    from repro.bench.reporting import print_table

    rows = run_once(
        benchmark,
        lambda: experiment_anchor_ablation(
            datasets=("writer", "opsahl"), k_values=(1,), max_results=100, time_limit=5.0
        ),
    )
    print()
    print_table(rows, title="Ablation: left- vs right-anchored traversal (k=1)")
    assert len(rows) == 2


def test_prep_ablation(benchmark):
    from conftest import run_once

    from repro.bench.reporting import print_table

    rows = run_once(benchmark, run_prep_ablation)
    print()
    print_table(rows, title="Ablation: prep off vs core vs core+order")
    assert all(row["num_solutions"] > 0 for row in rows)
    if not TINY:
        _assert_prep_speedup_target(rows)


if __name__ == "__main__":
    from repro.bench.reporting import print_table

    table = run_prep_ablation()
    print_table(table, title="Ablation: prep off vs core vs core+order")
    if TINY:
        print("smoke mode: solution-set equality checked, speedup target skipped")
    else:
        _assert_prep_speedup_target(table)
