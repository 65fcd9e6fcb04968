"""Shared configuration for the benchmark suite.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper (``repro.bench.experiments.EXPERIMENTS`` indexes the drivers).  The
modules use pytest-benchmark for the timing harness and print the
corresponding paper-style text table, so running

    pytest benchmarks/ --benchmark-only -s

produces both machine-readable timings and the rows/series the paper reports.
Workloads are scaled for pure-Python execution; set ``REPRO_BENCH_SCALE`` to
grow them.
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def run_once(benchmark, function):
    """Run ``function`` exactly once under pytest-benchmark and return its result.

    The experiment drivers already perform internal repetition / sweeps, so a
    single round keeps the suite's total runtime manageable while still
    recording a wall-clock figure per experiment.
    """
    return benchmark.pedantic(function, rounds=1, iterations=1, warmup_rounds=0)
