"""Sharded parallel enumeration benchmark: serial vs the process-pool engine.

Times iTraversal on dense Erdős–Rényi configurations serially and on the
sharded parallel engine (``jobs ∈ {2, 4}``), asserting on every row that
all runs enumerate the *identical* solution set (the parallel runs in the
deterministic sorted mode, compared as canonical key lists).  The timed
window includes the worker-pool spin-up and the merge — that is the real
cost a caller pays.

The full-size run additionally asserts a wall-clock speedup of at least
1.5x at ``jobs=4`` on at least one dense ER configuration.  The assertion
is gated on the machine actually having 4 CPU cores: on fewer cores the
workers time-share and the equality checks are still exercised, but no
speedup can physically materialise.

The module also carries the *left-heavy sparse* regression: on graphs with
many left vertices and a small right side, inherited exclusion prefixes
trigger re-exploration cascades inside the shards (every shrunk exclusion
set re-traverses a whole subtree).  The engine's cascade fallback detects
this through the re-exploration counter and drops to per-expansion
exclusion for the rest of the shard; the regression asserts the *merged*
parallel link count stays within a fixed multiple of the serial count.
The per-shard statistics are pure functions of the shard (stats reset per
shard), so the bound is deterministic — unlike wall clock, it cannot flake
with scheduling.

Runnable standalone (``python benchmarks/bench_parallel.py``) or via
pytest-benchmark.  Set ``REPRO_BENCH_TINY=1`` for smoke-test sizes (used
by CI).
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
from repro.graph import erdos_renyi_bipartite

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
JOBS_COMPARED = (1, 2, 4)
SPEEDUP_TARGET = 1.5
SPEEDUP_JOBS = 4

#: (n_left, n_right, edge_density, k) — dense ER, the regime where the
#: traversal forest is bushy and the per-anchor shards carry real work.
PARALLEL_BENCH_CONFIGS = (
    (16, 16, 4.0, 1),
    (20, 20, 2.5, 1),
)
TINY_PARALLEL_CONFIGS = ((10, 10, 2.0, 1),)

#: (n_left, n_right, num_edges, k) — left-heavy sparse ER, the cascade
#: fallback's regime.  Calibration on this seed: the fallback holds the
#: merged jobs=2 link count at ~4.2x serial; with the fallback disabled it
#: climbs to ~6.9x (and the re-exploration count grows by ~20x), so the
#: 5.5x bound separates a working fallback from a broken one.
LEFT_HEAVY_CONFIG = (36, 6, 70, 1)
TINY_LEFT_HEAVY_CONFIG = (18, 4, 30, 1)
LEFT_HEAVY_LINKS_BOUND = 5.5
LEFT_HEAVY_SEED = 11


def _enumerate_keys(graph, k: int, jobs: int):
    """Run iTraversal and return (sorted canonical keys, stats)."""
    algorithm = ITraversal(graph, k, jobs=jobs)
    keys = [solution.key() for solution in algorithm.enumerate()]
    if jobs == 1:
        keys.sort()  # serial output is in DFS order; compare canonically
    return keys, algorithm.stats


def run_parallel_comparison(configs=None, seed: int = 9):
    """One row per graph config: wall-clock per jobs value + speedups."""
    if configs is None:
        configs = TINY_PARALLEL_CONFIGS if TINY else PARALLEL_BENCH_CONFIGS
    rows = []
    for n_left, n_right, density, k in configs:
        graph = erdos_renyi_bipartite(n_left, n_right, edge_density=density, seed=seed)
        seconds = {}
        keys = {}
        shards = 0
        for jobs in JOBS_COMPARED:
            start = time.perf_counter()
            keys[jobs], stats = _enumerate_keys(graph, k, jobs)
            seconds[jobs] = time.perf_counter() - start
            if jobs > 1:
                shards = max(shards, stats.num_shards)
        for jobs in JOBS_COMPARED[1:]:
            assert keys[jobs] == keys[1], (
                f"jobs={jobs} must enumerate the identical solution set "
                f"({n_left}x{n_right} d={density} k={k})"
            )
        rows.append(
            {
                "n_left": n_left,
                "n_right": n_right,
                "edge_density": density,
                "k": k,
                "num_solutions": len(keys[1]),
                "num_shards": shards,
                "serial_seconds": seconds[1],
                "jobs2_seconds": seconds[2],
                "jobs4_seconds": seconds[4],
                "speedup_jobs4": (
                    seconds[1] / seconds[4] if seconds[4] else float("inf")
                ),
            }
        )
    return rows


def run_left_heavy_regression(config=None):
    """Serial vs jobs=2 on the left-heavy sparse regime; one result row.

    Asserts the identical solution set and — on the deterministic merged
    work counters — that the cascade fallback keeps the parallel link
    count within :data:`LEFT_HEAVY_LINKS_BOUND` times the serial count.
    """
    if config is None:
        config = TINY_LEFT_HEAVY_CONFIG if TINY else LEFT_HEAVY_CONFIG
    n_left, n_right, num_edges, k = config
    graph = erdos_renyi_bipartite(n_left, n_right, num_edges=num_edges, seed=LEFT_HEAVY_SEED)

    serial = ITraversal(graph, k, jobs=1)
    start = time.perf_counter()
    serial_keys = sorted(solution.key() for solution in serial.enumerate())
    serial_seconds = time.perf_counter() - start

    parallel = ITraversal(graph, k, jobs=2)
    start = time.perf_counter()
    parallel_keys = [solution.key() for solution in parallel.enumerate()]
    parallel_seconds = time.perf_counter() - start

    assert parallel_keys == serial_keys, (
        f"jobs=2 must enumerate the identical solution set on the "
        f"left-heavy regime ({n_left}x{n_right} m={num_edges} k={k})"
    )
    links_ratio = (
        parallel.stats.num_links / serial.stats.num_links
        if serial.stats.num_links
        else float("inf")
    )
    assert links_ratio <= LEFT_HEAVY_LINKS_BOUND, (
        f"cascade fallback regression: merged parallel links are "
        f"{links_ratio:.2f}x the serial count "
        f"(bound {LEFT_HEAVY_LINKS_BOUND}x) — re-exploration cascades are "
        f"no longer being contained "
        f"(num_reexplorations={parallel.stats.num_reexplorations})"
    )
    return {
        "n_left": n_left,
        "n_right": n_right,
        "num_edges": num_edges,
        "k": k,
        "num_solutions": len(serial_keys),
        "serial_links": serial.stats.num_links,
        "parallel_links": parallel.stats.num_links,
        "links_ratio": links_ratio,
        "num_reexplorations": parallel.stats.num_reexplorations,
        "serial_seconds": serial_seconds,
        "jobs2_seconds": parallel_seconds,
    }


def _enough_cores() -> bool:
    return (os.cpu_count() or 1) >= SPEEDUP_JOBS


def _assert_speedup_target(rows):
    """The >= 1.5x speedup at jobs=4, checked on the full-size run."""
    speedups = [row["speedup_jobs4"] for row in rows]
    assert max(speedups) >= SPEEDUP_TARGET, (
        f"jobs={SPEEDUP_JOBS} must reach >= {SPEEDUP_TARGET}x over serial on "
        f"at least one dense ER configuration, got speedups {speedups}"
    )


def test_parallel_speedup(benchmark):
    from conftest import run_once

    from repro.bench.reporting import print_table

    rows = run_once(benchmark, run_parallel_comparison)
    print()
    print_table(rows, title="Sharded parallel enumeration: serial vs jobs=2/4")
    assert all(row["num_solutions"] > 0 for row in rows)
    if not TINY and _enough_cores():
        _assert_speedup_target(rows)


def test_left_heavy_cascade_fallback(benchmark):
    from conftest import run_once

    from repro.bench.reporting import print_table

    row = run_once(benchmark, run_left_heavy_regression)
    print()
    print_table([row], title="Left-heavy sparse regression: cascade fallback")
    assert row["num_solutions"] > 0


if __name__ == "__main__":
    from repro.bench.reporting import print_table

    table = run_parallel_comparison()
    print_table(table, title="Sharded parallel enumeration: serial vs jobs=2/4")
    if TINY or not _enough_cores():
        print(
            "smoke mode or < 4 CPU cores: solution-set equality checked, "
            "speedup target skipped"
        )
    else:
        _assert_speedup_target(table)
    regression = run_left_heavy_regression()
    print_table([regression], title="Left-heavy sparse regression: cascade fallback")
