"""Bitruss / edge-support benchmark for the packed batch substrate.

Exercises the PR-4 batch kernels against the Python-native backends on the
edge-support layer the paper pairs with MBP enumeration as pre-pruning:

* **edge-support** — ``edge_butterfly_counts``: per-edge rectangle counts
  from blocked row-pair popcounts plus one BLAS matmul per anchor block on
  ``packed``, versus the per-edge mask loop on ``bitset``;
* **bitruss** — ``k_bitruss``: vectorized support computation feeding the
  incremental peel;
* **bitruss-number** — repeated peeling, the full decomposition;
* **enumeration** — iTraversal on a dense Erdős–Rényi configuration, where
  the enumeration-side batch predicates (whole-side Γ / δ̄ scoring in the
  traversal engine) apply.

Every row asserts three-way output equality (identical support dicts,
bitruss edge sets / numbers, and solution sets across ``set`` / ``bitset``
/ ``packed``); the full run additionally asserts the packed-vs-bitset
speedup targets: ≥ 2x on at least one bitruss configuration and at least
parity on the dense-ER enumeration.

Runnable standalone (``python benchmarks/bench_bitruss_packed.py``) or via
pytest-benchmark.  Set ``REPRO_BENCH_TINY=1`` for smoke-test sizes (used by
CI).  Without numpy the packed backend is the ``array('Q')`` fallback: the
benchmark still runs and checks the three-way equality (that *is* the
fallback's contract), but the speedup assertions are skipped.
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
from repro.graph import as_backend, erdos_renyi_bipartite, packed_available
from repro.graph.butterfly import bitruss_number, edge_butterfly_counts, k_bitruss

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
BACKENDS_COMPARED = ("set", "bitset", "packed")

# (component, n_left, n_right, edge_density, parameter) — the parameter is
# the peeling k for "bitruss" and the max_results cap for "enumeration".
BITRUSS_BENCH_CONFIGS = (
    ("edge-support", 400, 400, 10.0, None),
    ("bitruss", 300, 300, 8.0, 4),
    ("bitruss", 600, 600, 12.0, 8),
    ("bitruss-number", 150, 150, 6.0, None),
    ("enumeration", 160, 160, 10.0, 150),
)
TINY_BITRUSS_CONFIGS = (
    ("edge-support", 30, 30, 3.0, None),
    ("bitruss", 40, 40, 3.0, 1),
    ("bitruss-number", 20, 20, 2.0, None),
    ("enumeration", 12, 12, 1.5, 50),
)
K = 1
#: Timed repetitions for the two fast backends; the set backend runs once —
#: it participates as the equality oracle, not as a timing baseline.
REPEATS = 3


def _component_runner(component: str, graph, backend: str, parameter):
    """A zero-argument callable running ``component``, returning a comparison key."""
    if component == "edge-support":
        return lambda: sorted(edge_butterfly_counts(graph).items())
    if component == "bitruss":
        return lambda: sorted(k_bitruss(graph, parameter).edges())
    if component == "bitruss-number":
        return lambda: sorted(bitruss_number(graph).items())
    if component == "enumeration":
        # The backend is passed explicitly so the engine's as_backend is a
        # no-op and the timed region contains no conversion.
        return lambda: [
            s.key()
            for s in ITraversal(
                graph, K, max_results=parameter, backend=backend
            ).enumerate()
        ]
    raise ValueError(f"unknown benchmark component {component!r}")


def run_bitruss_comparison(configs=None, seed: int = 3):
    """One row per (component, graph config): wall-clock per backend + speedups."""
    if configs is None:
        configs = TINY_BITRUSS_CONFIGS if TINY else BITRUSS_BENCH_CONFIGS
    rows = []
    for component, n_left, n_right, density, parameter in configs:
        graph = erdos_renyi_bipartite(n_left, n_right, edge_density=density, seed=seed)
        results = {}
        seconds = {}
        for backend in BACKENDS_COMPARED:
            # Conversion happens outside the timed region: the benchmark
            # compares steady-state substrate performance, not build cost.
            run = _component_runner(
                component, as_backend(graph, backend), backend, parameter
            )
            best = float("inf")
            for _ in range(1 if backend == "set" else REPEATS):
                start = time.perf_counter()
                results[backend] = run()
                best = min(best, time.perf_counter() - start)
            seconds[backend] = best
        for backend in ("bitset", "packed"):
            assert results[backend] == results["set"], (
                f"{component}: the {backend} backend must produce identical "
                "support counts / bitruss edges / solution sets"
            )
        rows.append(
            {
                "component": component,
                "n_left": n_left,
                "n_right": n_right,
                "edge_density": density,
                "parameter": parameter,
                "set_seconds": seconds["set"],
                "bitset_seconds": seconds["bitset"],
                "packed_seconds": seconds["packed"],
                "packed_vs_bitset": (
                    seconds["bitset"] / seconds["packed"]
                    if seconds["packed"]
                    else float("inf")
                ),
            }
        )
    return rows


def _assert_speedup_targets(rows):
    """The acceptance targets of ISSUE 4, checked on the full-size run."""
    bitruss_speedups = [
        row["packed_vs_bitset"] for row in rows if row["component"] == "bitruss"
    ]
    assert max(bitruss_speedups) >= 2.0, (
        "packed bitruss peeling must be >= 2x over bitset on at least one "
        f"configuration, got speedups {bitruss_speedups}"
    )
    enum_speedups = [
        row["packed_vs_bitset"] for row in rows if row["component"] == "enumeration"
    ]
    assert max(enum_speedups) >= 1.0, (
        "packed must be at least at bitset parity on the dense-ER "
        f"enumeration, got speedups {enum_speedups}"
    )


def test_bitruss_packed_speedup(benchmark):
    from conftest import run_once

    from repro.bench.reporting import print_table

    rows = run_once(benchmark, run_bitruss_comparison)
    print()
    print_table(rows, title="Bitruss benchmark: set vs bitset vs packed")
    assert {row["component"] for row in rows} >= {"edge-support", "bitruss"}
    if not TINY and packed_available():
        _assert_speedup_targets(rows)


if __name__ == "__main__":
    from repro.bench.reporting import print_table

    table = run_bitruss_comparison()
    print_table(table, title="Bitruss benchmark: set vs bitset vs packed")
    if TINY or not packed_available():
        print(
            "smoke/fallback mode: three-way equality checked, "
            "speedup targets skipped"
        )
    else:
        _assert_speedup_targets(table)
