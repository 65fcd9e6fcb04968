"""Benchmark harness: timing utilities, per-figure experiment drivers, reporting."""

from .experiments import EXPERIMENTS
from .harness import ALGORITHMS, Measurement, bench_scale, measure, scaled
from .reporting import INF, OUT, format_seconds, format_table, pivot, print_table

__all__ = [
    "EXPERIMENTS",
    "ALGORITHMS",
    "Measurement",
    "bench_scale",
    "scaled",
    "measure",
    "INF",
    "OUT",
    "format_seconds",
    "format_table",
    "print_table",
    "pivot",
]
