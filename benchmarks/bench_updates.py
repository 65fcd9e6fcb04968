"""Incremental index maintenance vs full recompute on a streaming attack.

The workload is the streaming camouflage attack of
:mod:`repro.analysis.fraud`: the fraud block is already planted, and the
camouflage reviews (fake users -> real products) arrive over time in
batches.  Two detectors track butterfly counts and the (α, β)-core across
the stream:

* **incremental** — one :class:`repro.graph.dynamic.DynamicGraphIndex`
  absorbing each batch (per-edge wedge deltas, locally-repaired core);
* **recompute** — the cold path a frozen-graph stack forces: after every
  batch, re-run :func:`repro.graph.butterfly.edge_butterfly_counts` and
  :func:`repro.graph.cores.alpha_beta_core` on the whole mutated graph.

Every row asserts the two agree exactly (supports, totals, membership) —
the differential is the point, the timing is the payoff — and pins the
final butterfly total and (α, β)-core sizes, so a change that moves both
paths the same way still fails.  The full-size run also asserts that
incremental maintenance is at least 2x faster than recomputation on this
workload.

Runnable standalone (``python benchmarks/bench_updates.py``) or via
pytest-benchmark.  Set ``REPRO_BENCH_TINY=1`` for smoke-test sizes (used
by CI; the speedup target is skipped — tiny graphs recompute in
microseconds either way).
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__":  # standalone run: mirror conftest's path setup
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.analysis.fraud import FraudStudyConfig, streaming_camouflage_edges
from repro.graph.cores import alpha_beta_core
from repro.graph.dynamic import DynamicGraphIndex, recomputed_oracle

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
SPEEDUP_TARGET = 2.0

#: (study config, alpha, beta, batches, pinned (butterflies, core sizes)) —
#: the streaming-camouflage shapes.  The full-size rows use the fraud
#: study's default scale; batch counts model slow (few, large waves) and
#: fast (many small waves) arrival.
UPDATE_BENCH_CONFIGS = (
    (FraudStudyConfig(), 5, 4, 10, (48076, (260, 158))),
    (FraudStudyConfig(), 5, 4, 40, (48076, (260, 158))),
)
TINY_UPDATE_CONFIGS = (
    (
        FraudStudyConfig(
            n_real_users=60,
            n_real_products=30,
            n_real_reviews=300,
            n_fake_users=10,
            n_fake_products=10,
            seed=7,
        ),
        4,
        3,
        5,
        (2086, (60, 36)),
    ),
)


def _batches(edges, num_batches):
    chunk = -(-len(edges) // num_batches) if edges else 1
    return [edges[i * chunk : (i + 1) * chunk] for i in range(num_batches)]


def run_update_comparison():
    """One row per streaming config: maintained indices vs per-batch recompute."""
    rows = []
    configs = TINY_UPDATE_CONFIGS if TINY else UPDATE_BENCH_CONFIGS
    for config, alpha, beta, num_batches, pinned in configs:
        base, _injection, camouflage = streaming_camouflage_edges(config)
        batches = _batches(camouflage, num_batches)
        label = (
            f"{base.n_left}x{base.n_right} e={base.num_edges} "
            f"+{len(camouflage)} in {num_batches} batches a={alpha} b={beta}"
        )

        # Incremental path: one index, every batch applied in place.
        incremental_graph = base.copy()
        index = DynamicGraphIndex(incremental_graph, alpha=alpha, beta=beta)
        start = time.perf_counter()
        for batch in batches:
            index.apply(inserts=batch)
        incremental_seconds = time.perf_counter() - start

        # Recompute path: the same arrivals, indices rebuilt from scratch
        # after every batch (what a frozen-graph stack has to do).
        recompute_graph = base.copy()
        start = time.perf_counter()
        for batch in batches:
            recompute_graph.apply_batch(inserts=batch)
            total, supports, core = recomputed_oracle(
                recompute_graph, alpha=alpha, beta=beta
            )
        recompute_seconds = time.perf_counter() - start

        # Differential before timing claims: the final maintained state must
        # equal the final recomputed one, bit for bit.
        assert index.butterfly_count == total, label
        assert index.butterflies.supports == supports, label
        assert tuple(map(set, index.core_members)) == tuple(map(set, core)), label
        check_left, check_right = alpha_beta_core(incremental_graph, alpha, beta)
        assert (set(check_left), set(check_right)) == tuple(map(set, core)), label
        answer = (total, tuple(map(len, core)))
        assert answer == pinned, f"{label}: pinned {pinned}, got {answer}"

        rows.append(
            {
                "config": label,
                "edges_streamed": len(camouflage),
                "butterflies": index.butterfly_count,
                "incremental_seconds": incremental_seconds,
                "recompute_seconds": recompute_seconds,
                "speedup": (
                    recompute_seconds / incremental_seconds
                    if incremental_seconds
                    else float("inf")
                ),
            }
        )
    return rows


def _assert_speedup_target(rows):
    """The >= 2x incremental-maintenance speedup, checked on the full-size run."""
    speedups = [row["speedup"] for row in rows]
    assert min(speedups) >= SPEEDUP_TARGET, (
        f"incremental maintenance must beat per-batch recomputation by "
        f">= {SPEEDUP_TARGET}x on every streaming configuration, got {speedups}"
    )


def test_incremental_updates(benchmark):
    from conftest import run_once

    from repro.bench.reporting import print_table

    rows = run_once(benchmark, run_update_comparison)
    print()
    print_table(rows, title="Index maintenance: incremental vs full recompute")
    assert all(row["butterflies"] > 0 for row in rows)
    if not TINY:
        _assert_speedup_target(rows)


if __name__ == "__main__":
    from repro.bench.reporting import print_table

    table = run_update_comparison()
    print_table(table, title="Index maintenance: incremental vs full recompute")
    if TINY:
        print("smoke mode: differential and pins checked, speedup target skipped")
    else:
        _assert_speedup_target(table)
