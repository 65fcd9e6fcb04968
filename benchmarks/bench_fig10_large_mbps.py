"""Figure 10 — enumerating large MBPs (both sides ≥ θ) after the core/bitruss reduction.

Expected shape (paper): running time decreases as θ grows (the core shrinks
and there are fewer large MBPs); iTraversal beats iMB by orders of magnitude.
"""

from conftest import run_once

from repro.bench.experiments import experiment_fig10
from repro.bench.reporting import print_table


def test_fig10_large_mbps_writer(benchmark):
    rows = run_once(
        benchmark,
        lambda: experiment_fig10(dataset="writer", k=1, theta_values=(5, 6, 7, 8), time_limit=8.0),
    )
    print()
    print_table(rows, title="Figure 10(a): large MBPs, varying theta (Writer stand-in, k=1)")
    assert [row["theta"] for row in rows] == [5, 6, 7, 8]


def test_fig10_large_mbps_dblp(benchmark):
    rows = run_once(
        benchmark,
        lambda: experiment_fig10(dataset="dblp", k=1, theta_values=(6, 7, 8), time_limit=8.0),
    )
    print()
    print_table(rows, title="Figure 10(b): large MBPs, varying theta (DBLP stand-in, k=1)")
    assert [row["theta"] for row in rows] == [6, 7, 8]
