"""Verification helpers: checking solutions and comparing solution sets.

These utilities back the test suite and the benchmark harness: every
algorithm in the library (iTraversal, bTraversal, iMB, the inflation
pipeline, the brute force) must produce exactly the same set of maximal
k-biplexes, and each reported biplex must satisfy Definition 2.1/2.3.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..graph.bipartite import BipartiteGraph
from .biplex import Biplex, is_k_biplex, is_maximal_k_biplex


def _prefix(label: Optional[str]) -> str:
    return f"[{label}] " if label else ""


def check_solution(
    graph: BipartiteGraph, solution: Biplex, k: int, label: Optional[str] = None
) -> None:
    """Raise :class:`AssertionError` unless ``solution`` is a maximal k-biplex.

    ``label`` names the producer of the solution (an algorithm, a
    configuration) and is prefixed to the failure message, so harnesses
    that sweep many algorithm × configuration combinations report *which*
    one broke.
    """
    if not is_k_biplex(graph, solution.left, solution.right, k):
        raise AssertionError(f"{_prefix(label)}{solution!r} is not a {k}-biplex")
    if not is_maximal_k_biplex(graph, solution.left, solution.right, k):
        raise AssertionError(
            f"{_prefix(label)}{solution!r} is a {k}-biplex but not maximal"
        )


def check_all_solutions(
    graph: BipartiteGraph,
    solutions: Iterable[Biplex],
    k: int,
    label: Optional[str] = None,
) -> None:
    """Check every solution and that there are no duplicates.

    ``label`` is threaded through to every raised :class:`AssertionError`
    (see :func:`check_solution`) — without it a failure from a many-way
    differential sweep gives no clue which algorithm produced it.
    """
    seen: Set[Biplex] = set()
    for solution in solutions:
        if solution in seen:
            raise AssertionError(f"{_prefix(label)}duplicate solution {solution!r}")
        seen.add(solution)
        check_solution(graph, solution, k, label=label)


def canonical(solutions: Iterable[Biplex]) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Canonical, order-independent representation of a solution collection."""
    return sorted(solution.key() for solution in solutions)


def same_solutions(first: Iterable[Biplex], second: Iterable[Biplex]) -> bool:
    """Whether two solution collections contain exactly the same biplexes."""
    return set(first) == set(second)


def missing_and_extra(
    reference: Iterable[Biplex], candidate: Iterable[Biplex]
) -> Tuple[Set[Biplex], Set[Biplex]]:
    """Solutions missing from / extraneous in ``candidate`` relative to ``reference``."""
    reference_set = set(reference)
    candidate_set = set(candidate)
    return reference_set - candidate_set, candidate_set - reference_set


def summarize_solutions(solutions: Sequence[Biplex]) -> dict:
    """Small summary used by the CLI and the examples."""
    if not solutions:
        return {"count": 0, "max_left": 0, "max_right": 0, "max_total": 0}
    return {
        "count": len(solutions),
        "max_left": max(len(s.left) for s in solutions),
        "max_right": max(len(s.right) for s in solutions),
        "max_total": max(s.size for s in solutions),
    }
