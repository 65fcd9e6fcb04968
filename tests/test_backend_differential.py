"""Differential harness: every enumerator against the brute-force oracle.

Seeded random-graph property tests that sweep **every** maximal-k-biplex
enumerator the library ships — iTraversal, bTraversal, the large-MBP
enumerator and iMB — and pin, for every single run, that

* the produced solutions are valid maximal k-biplexes with no duplicates
  (``verify.check_all_solutions``, labelled so a failure names the
  algorithm × configuration × graph that broke), and
* the solution *set* matches the exhaustive brute force
  (``verify.same_solutions``).

Every case runs on the same graph reached by each construction route of
``graph_samples.ROUTES`` (constructor, edge-by-edge growth, one batched
update), so mask code fed by any of the mutation paths is differenced
against the oracle.

The enumerators run on the adjacency masks; the brute force and
``verify`` ask only set queries (``is_k_biplex`` /
``is_maximal_k_biplex``), so the oracle shares no hot-path code with what
it checks.  iMB, a different algorithm on the same masks, is the second
oracle.

The ``jobs ∈ {1, 2}`` axis covers the engine-backed enumerators: the
sharded parallel engine must produce exactly the serial solution set, and
its output must still support the solution-graph layer.  The
``prep ∈ {off, core, core+order}`` axis pins that the preprocessing
pipeline (:mod:`repro.prep` — core/bitruss graph reduction plus degeneracy
candidate ordering) leaves the enumerated solution set untouched, serial
and parallel, with and without size thresholds.
"""

from __future__ import annotations

import pytest
from graph_samples import ROUTES, random_graphs, via

from repro.baselines import enumerate_mbps_bruteforce, enumerate_mbps_imb
from repro.core import BTraversal, ITraversal
from repro.core.verify import (
    check_all_solutions,
    filter_large,
    missing_and_extra,
    same_solutions,
)

#: Size threshold exercised by the thresholded ITraversal leg of the matrix.
THETA = 2

#: Small enough for the brute-force oracle, varied enough to hit empty
#: sides, dense blocks and isolated vertices.
GRAPHS = random_graphs(5, max_side=5, seed=424242)


def _enumerators():
    """The (name, runner) matrix; every runner returns a solution list."""
    yield "ITraversal", lambda graph, k: ITraversal(graph, k).enumerate()
    yield "BTraversal", lambda graph, k: BTraversal(graph, k).enumerate()
    yield "iMB", enumerate_mbps_imb
    # The brute force on the routed graph: its set-query predicates read
    # adjacency filled by the route, the reference's by the constructor.
    yield "bruteforce", enumerate_mbps_bruteforce


@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize("route", ROUTES)
def test_every_enumerator_matches_the_oracle(route, k):
    for index, base in enumerate(GRAPHS):
        reference = enumerate_mbps_bruteforce(base, k)
        check_all_solutions(base, reference, k, label=f"oracle k={k} g{index}")
        graph = via(route, base)
        for name, run in _enumerators():
            label = f"{name}[{route}] k={k} g{index}"
            solutions = run(graph, k)
            check_all_solutions(graph, solutions, k, label=label)
            assert same_solutions(reference, solutions), (
                label,
                missing_and_extra(reference, solutions),
            )


@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("route", ROUTES)
def test_traversals_match_oracle_serial_and_parallel(route, jobs, k):
    """The jobs axis: every engine-backed enumerator, serial vs sharded.

    ``jobs=1`` pins the dispatch path (explicit jobs must not change the
    serial behaviour); ``jobs=2`` drives the full parallel machinery —
    shard planning, worker pool, dedup merge — whose sorted output must
    still be exactly the oracle's solution set.  Tiny
    graphs whose shard plan has < 2 entries exercise the documented serial
    fallback.
    """
    for index, base in enumerate(GRAPHS):
        reference = enumerate_mbps_bruteforce(base, k)
        graph = via(route, base)
        for name, runner in (
            ("ITraversal", lambda g: ITraversal(g, k, jobs=jobs)),
            ("BTraversal", lambda g: BTraversal(g, k, jobs=jobs)),
        ):
            label = f"{name}[{route}] jobs={jobs} k={k} g{index}"
            algorithm = runner(graph)
            solutions = algorithm.enumerate()
            check_all_solutions(graph, solutions, k, label=label)
            assert same_solutions(reference, solutions), (
                label,
                missing_and_extra(reference, solutions),
            )
            assert algorithm.stats.num_reported == len(solutions), label


@pytest.mark.parametrize("k", (1, 2))
def test_solution_graph_build_over_parallel_output(k):
    """The parallel engine's output supports the solution-graph layer.

    ``build_solution_graph`` derives its node set from a full (serial)
    bTraversal; the nodes must coincide with the parallel iTraversal
    output, and attaching the b-links to the parallel node list must
    reproduce the paper's strong-connectivity property of ``G``.
    """
    from repro.core.solution_graph import SolutionGraph, build_solution_graph

    for index, graph in enumerate(GRAPHS[:3]):
        parallel_nodes = ITraversal(graph, k, jobs=2).enumerate()
        reference_graph = build_solution_graph(graph, k, variant="btraversal")
        assert set(reference_graph.nodes) == set(parallel_nodes), f"k={k} g{index}"
        rebuilt = SolutionGraph(
            nodes=list(parallel_nodes), links=list(reference_graph.links)
        )
        assert rebuilt.num_nodes == len(parallel_nodes)
        assert rebuilt.is_strongly_connected(), f"k={k} g{index}"


@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("route", ROUTES)
def test_large_mbp_enumerator_matches_filtered_oracle(route, jobs, k):
    for index, base in enumerate(GRAPHS):
        reference = filter_large(enumerate_mbps_bruteforce(base, k), THETA, THETA)
        graph = via(route, base)
        label = f"ITraversal[{route}] jobs={jobs} k={k} theta={THETA} g{index}"
        solutions = ITraversal(
            graph, k, theta_left=THETA, theta_right=THETA, jobs=jobs
        ).enumerate()
        check_all_solutions(graph, solutions, k, label=label)
        assert all(
            len(s.left) >= THETA and len(s.right) >= THETA for s in solutions
        ), label
        assert same_solutions(reference, solutions), (
            label,
            missing_and_extra(reference, solutions),
        )


#: The full preprocessing ablation swept by the prep-axis tests below.
PREPS = ("off", "core", "core+order")


@pytest.mark.parametrize("prep", PREPS)
@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("route", ROUTES)
def test_prep_modes_match_oracle(route, jobs, prep):
    """The prep axis: reduction + ordering never change the solution set.

    Unthresholded iTraversal (the reduction is an identity there, but
    ``core+order`` still permutes the traversal) and thresholded
    iTraversal (where the core/bitruss reduction actually peels
    vertices and the solutions must be translated back to original ids)
    are both pinned against the brute-force oracle, serial and sharded,
    for k = 1 and 2.
    """
    for index, base in enumerate(GRAPHS):
        graph = via(route, base)
        for k in (1, 2):
            reference = enumerate_mbps_bruteforce(base, k)
            label = f"ITraversal[{route}] jobs={jobs} prep={prep} k={k} g{index}"
            algorithm = ITraversal(graph, k, jobs=jobs, prep=prep)
            solutions = algorithm.enumerate()
            check_all_solutions(graph, solutions, k, label=label)
            assert same_solutions(reference, solutions), (
                label,
                missing_and_extra(reference, solutions),
            )

            large_reference = filter_large(reference, THETA, THETA)
            label = f"ITraversal[{route}] jobs={jobs} prep={prep} k={k} theta={THETA} g{index}"
            large = ITraversal(
                graph, k, theta_left=THETA, theta_right=THETA, jobs=jobs, prep=prep
            ).enumerate()
            check_all_solutions(graph, large, k, label=label)
            assert same_solutions(large_reference, large), (
                label,
                missing_and_extra(large_reference, large),
            )


@pytest.mark.parametrize("prep", PREPS[1:])
def test_prep_preserves_serial_output_order_without_thresholds(prep):
    """Without thresholds ``core`` is an identity — bit-for-bit, order included.

    ``jobs=1`` pinned: the comparison is about the serial DFS order.
    """
    for index, graph in enumerate(GRAPHS):
        baseline = [s.key() for s in ITraversal(graph, 1, prep="off", jobs=1).enumerate()]
        got = [s.key() for s in ITraversal(graph, 1, prep=prep, jobs=1).enumerate()]
        if prep == "core":
            assert got == baseline, f"g{index}: prep=core must be bit-for-bit"
        else:
            assert sorted(got) == sorted(baseline), f"g{index}"


class TestFailureAttribution:
    """The ``label=`` threading the harness above relies on."""

    def test_label_prefixes_validity_errors(self, complete_graph):
        from repro.core.biplex import Biplex

        # ({0}, {0}) is a 1-biplex of K_{3,3} but far from maximal.
        bogus = [Biplex.of({0}, {0})]
        with pytest.raises(AssertionError, match=r"\[iMB k=1 g3\]"):
            check_all_solutions(complete_graph, bogus, 1, label="iMB k=1 g3")

    def test_label_prefixes_duplicate_errors(self, complete_graph):
        from repro.core.biplex import Biplex

        full = Biplex.of({0, 1, 2}, {0, 1, 2})
        with pytest.raises(AssertionError, match=r"\[dup-source\] duplicate"):
            check_all_solutions(complete_graph, [full, full], 1, label="dup-source")

    def test_unlabelled_errors_stay_unprefixed(self, complete_graph):
        from repro.core.biplex import Biplex

        with pytest.raises(AssertionError) as excinfo:
            check_all_solutions(complete_graph, [Biplex.of({0}, {0})], 1)
        assert not str(excinfo.value).startswith("[")
