"""Tests for the baseline algorithms: brute force, iMB, k-plex, inflation, biclique, δ-QB."""

import time

import pytest

from graph_samples import ROUTES, via

from repro.baselines import (
    IMB,
    count_k_biplexes_bruteforce,
    enumerate_maximal_bicliques,
    enumerate_maximal_kplexes,
    enumerate_maximal_quasi_bicliques,
    enumerate_mbps_bruteforce,
    enumerate_mbps_imb,
    enumerate_mbps_inflation,
    find_quasi_bicliques_greedy,
    is_biclique,
    is_maximal_kplex,
    is_quasi_biclique,
    maximum_biclique_greedy,
    quasi_biclique_seed_k,
)
from repro.baselines.faplexen import FaPlexenPipeline
from repro.core import is_maximal_k_biplex
from repro.graph import BipartiteGraph, Graph, erdos_renyi_bipartite, paper_example_graph


class TestBruteforce:
    def test_rejects_invalid_k(self, example_graph):
        with pytest.raises(ValueError):
            enumerate_mbps_bruteforce(example_graph, 0)

    def test_all_outputs_are_maximal(self, example_graph):
        for solution in enumerate_mbps_bruteforce(example_graph, 1):
            assert is_maximal_k_biplex(example_graph, solution.left, solution.right, 1)

    def test_no_duplicates(self, example_graph):
        solutions = enumerate_mbps_bruteforce(example_graph, 1)
        assert len(solutions) == len(set(solutions))

    def test_count_biplexes_monotone_in_k(self, tiny_graph):
        assert count_k_biplexes_bruteforce(tiny_graph, 1) <= count_k_biplexes_bruteforce(
            tiny_graph, 2
        )

    def test_complete_graph_single_solution(self, complete_graph):
        solutions = enumerate_mbps_bruteforce(complete_graph, 1)
        assert len(solutions) == 1
        assert solutions[0].size == 6


class TestIMB:
    def test_matches_bruteforce(self, example_graph):
        for k in (1, 2):
            assert set(enumerate_mbps_imb(example_graph, k)) == set(
                enumerate_mbps_bruteforce(example_graph, k)
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce_random(self, seed):
        graph = erdos_renyi_bipartite(4, 4, num_edges=6 + seed, seed=seed)
        assert set(enumerate_mbps_imb(graph, 1)) == set(enumerate_mbps_bruteforce(graph, 1))

    def test_size_constraints(self, example_graph):
        all_solutions = enumerate_mbps_bruteforce(example_graph, 1)
        constrained = enumerate_mbps_imb(example_graph, 1, theta_left=2, theta_right=3)
        expected = {
            s for s in all_solutions if len(s.left) >= 2 and len(s.right) >= 3
        }
        assert set(constrained) == expected

    def test_max_results(self, example_graph):
        assert len(enumerate_mbps_imb(example_graph, 1, max_results=2)) == 2

    def test_truncated_flag_on_time_limit(self, example_graph):
        enumerator = IMB(example_graph, 1, time_limit=0.0)
        enumerator.enumerate()
        assert enumerator.truncated

    def test_reenumeration_restarts_the_clock(self, example_graph):
        # A second enumerate() on the same object must not inherit a stale
        # _start: simulate the stale state an aged object would carry and
        # check the fresh run still completes without tripping the limit.
        enumerator = IMB(example_graph, 1, time_limit=60.0)
        first = enumerator.enumerate()
        enumerator._start = time.perf_counter() - 10_000.0
        second = enumerator.enumerate()
        assert not enumerator.truncated
        assert set(second) == set(first)
        assert time.perf_counter() - enumerator._start < 60.0

    def test_k_zero_yields_bicliques(self, example_graph):
        for solution in enumerate_mbps_imb(example_graph, 0, theta_left=1, theta_right=1):
            assert is_biclique(example_graph, solution.left, solution.right)

    def test_negative_k_rejected(self, example_graph):
        with pytest.raises(ValueError):
            IMB(example_graph, -1)

    def test_empty_graph(self):
        assert enumerate_mbps_imb(BipartiteGraph(0, 0), 1) == []


class TestKPlex:
    def test_rejects_invalid_k(self):
        with pytest.raises(ValueError):
            enumerate_maximal_kplexes(Graph(3), 0)

    def test_triangle_one_plex_is_the_clique(self):
        graph = Graph(3, edges=[(0, 1), (1, 2), (0, 2)])
        assert enumerate_maximal_kplexes(graph, 1) == ([{0, 1, 2}], False)

    def test_path_two_plexes(self):
        graph = Graph(3, edges=[(0, 1), (1, 2)])
        plexes = {frozenset(p) for p in enumerate_maximal_kplexes(graph, 1)[0]}
        assert plexes == {frozenset({0, 1}), frozenset({1, 2})}
        two_plexes = {frozenset(p) for p in enumerate_maximal_kplexes(graph, 2)[0]}
        assert frozenset({0, 1, 2}) in two_plexes

    def test_all_outputs_are_maximal_kplexes(self):
        graph = Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3)])
        for k in (1, 2):
            for plex in enumerate_maximal_kplexes(graph, k)[0]:
                assert graph.subgraph_is_kplex(plex, k)
                assert is_maximal_kplex(graph, plex, k)

    def test_must_contain(self):
        graph = Graph(4, edges=[(0, 1), (1, 2), (2, 3)])
        for plex in enumerate_maximal_kplexes(graph, 2, must_contain=0)[0]:
            assert 0 in plex
            assert is_maximal_kplex(graph, plex, 2)

    def test_empty_graph(self):
        assert enumerate_maximal_kplexes(Graph(0), 1) == ([], False)

    def test_max_results(self):
        graph = Graph(4, edges=[(0, 1), (2, 3)])
        plexes, cut = enumerate_maximal_kplexes(graph, 1, max_results=1)
        assert len(plexes) == 1
        assert cut

    def test_reenumeration_restarts_the_clock(self):
        from repro.baselines.kplex import _KPlexEnumerator

        graph = Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        enumerator = _KPlexEnumerator(graph, 1, time_limit=60.0)
        first = enumerator.run()
        # Simulate the stale _start a long-lived object would carry into a
        # second run; the fresh run must reset it rather than inherit it.
        enumerator._start = time.perf_counter() - 10_000.0
        second = enumerator.run()
        assert not enumerator.truncated
        assert {frozenset(p) for p in second} == {frozenset(p) for p in first}
        assert time.perf_counter() - enumerator._start < 60.0


class TestInflationPipeline:
    def test_matches_bruteforce(self, example_graph):
        for k in (1, 2):
            assert set(enumerate_mbps_inflation(example_graph, k)) == set(
                enumerate_mbps_bruteforce(example_graph, k)
            )

    def test_memory_budget_reports_out(self, example_graph):
        pipeline = FaPlexenPipeline(example_graph, 1, memory_edge_budget=1)
        assert pipeline.enumerate() == []
        assert pipeline.stats.truncated
        assert pipeline.stats.inflated_edges > 1

    def test_stats_totals(self, example_graph):
        pipeline = FaPlexenPipeline(example_graph, 1)
        pipeline.enumerate()
        assert pipeline.stats.total_seconds >= 0
        assert pipeline.stats.inflated_edges > example_graph.num_edges

    def test_max_results_cap_reports_truncated(self, example_graph):
        # Regression: a run stopped by the result cap used to masquerade as
        # a complete enumeration (only time-based truncation was reported).
        pipeline = FaPlexenPipeline(example_graph, 1, max_results=2)
        solutions = pipeline.enumerate()
        assert len(solutions) == 2
        assert pipeline.stats.truncated

    def test_complete_run_not_truncated(self, example_graph):
        pipeline = FaPlexenPipeline(example_graph, 1)
        pipeline.enumerate()
        assert not pipeline.stats.truncated

    def test_time_limit_reports_truncated(self, example_graph):
        pipeline = FaPlexenPipeline(example_graph, 1, time_limit=0.0)
        pipeline.enumerate()
        assert pipeline.stats.truncated

    def test_rejects_unknown_backend(self, example_graph):
        # The backend argument is gone: passing one fails loudly.
        with pytest.raises(TypeError):
            FaPlexenPipeline(example_graph, 1, backend="numpy")
        with pytest.raises(TypeError):
            enumerate_mbps_inflation(example_graph, 1, backend="bitset")


def _is_quasi_biclique_by_sets(graph, left, right, delta):
    """δ-QB predicate from set queries only: the oracle for the mask form."""
    left, right = set(left), set(right)
    return all(graph.missing_left(v, right) <= delta * len(right) for v in left) and all(
        graph.missing_right(u, left) <= delta * len(left) for u in right
    )


class TestBaselineBackendEquivalence:
    """Each mask-based baseline against an oracle built from set queries,
    on the graph reached by every construction route."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", [1, 2])
    def test_imb_backends_agree(self, seed, k):
        graph = erdos_renyi_bipartite(5, 5, num_edges=10 + seed * 4, seed=seed)
        expected = set(enumerate_mbps_bruteforce(graph, k))
        for route in ROUTES:
            assert set(enumerate_mbps_imb(via(route, graph), k)) == expected, route

    @pytest.mark.parametrize("seed", range(3))
    def test_inflation_backends_agree(self, seed):
        graph = erdos_renyi_bipartite(4, 4, num_edges=8 + seed * 2, seed=seed)
        expected = set(enumerate_mbps_bruteforce(graph, 1))
        for route in ROUTES:
            assert set(enumerate_mbps_inflation(via(route, graph), 1)) == expected, route

    @pytest.mark.parametrize("k", [1, 2])
    def test_kplex_masked_graph_agrees(self, k):
        import random
        from itertools import combinations

        rng = random.Random(11)
        n = 7
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        graph = Graph(n, edges)
        expected = {
            frozenset(subset)
            for size in range(1, n + 1)
            for subset in combinations(range(n), size)
            if is_maximal_kplex(graph, set(subset), k)
        }
        grown = Graph(n)
        for u, v in reversed(edges):
            grown.add_edge(v, u)
        for substrate in (graph, grown):
            plexes, _ = enumerate_maximal_kplexes(substrate, k)
            assert len(plexes) == len(expected)
            assert set(map(frozenset, plexes)) == expected

    def test_quasi_biclique_backends_agree(self, example_graph):
        from itertools import combinations

        graph = example_graph
        for delta in (0.0, 0.3, 0.6):
            found = [
                (set(left), set(right))
                for a in range(2, 6)
                for left in combinations(range(5), a)
                for b in range(2, 6)
                for right in combinations(range(5), b)
                if _is_quasi_biclique_by_sets(graph, left, right, delta)
            ]
            expected = {
                (frozenset(left), frozenset(right))
                for left, right in found
                if not any(
                    (left, right) != other and left <= other[0] and right <= other[1]
                    for other in found
                )
            }
            for route in ROUTES:
                got = {
                    (s.left, s.right)
                    for s in enumerate_maximal_quasi_bicliques(via(route, graph), delta, 2, 2)
                }
                assert got == expected, (route, delta)
        for structure in find_quasi_bicliques_greedy(graph, 0.25, 2, 2):
            assert _is_quasi_biclique_by_sets(graph, structure.left, structure.right, 0.25)

    def test_is_quasi_biclique_backends_agree(self, example_graph):
        import random

        rng = random.Random(7)
        routed = [via(route, example_graph) for route in ROUTES]
        for _ in range(20):
            left = {v for v in example_graph.left_vertices() if rng.random() < 0.5}
            right = {u for u in example_graph.right_vertices() if rng.random() < 0.5}
            for delta in (0.0, 0.25, 0.5, 1.0):
                expected = _is_quasi_biclique_by_sets(example_graph, left, right, delta)
                for graph in routed:
                    assert is_quasi_biclique(graph, left, right, delta) == expected


class TestBiclique:
    def test_all_outputs_are_bicliques(self, example_graph):
        for biclique in enumerate_maximal_bicliques(example_graph):
            assert is_biclique(example_graph, biclique.left, biclique.right)

    def test_complete_graph_biclique(self, complete_graph):
        bicliques = enumerate_maximal_bicliques(complete_graph, theta_left=3, theta_right=3)
        assert len(bicliques) == 1
        assert bicliques[0].size == 6

    def test_size_thresholds_respected(self, example_graph):
        for biclique in enumerate_maximal_bicliques(example_graph, theta_left=2, theta_right=2):
            assert len(biclique.left) >= 2 and len(biclique.right) >= 2

    def test_maximum_biclique_greedy(self, example_graph):
        best = maximum_biclique_greedy(example_graph, theta_left=1, theta_right=1)
        assert best is not None
        assert is_biclique(example_graph, best.left, best.right)

    def test_maximum_biclique_none_when_too_strict(self, empty_graph):
        assert maximum_biclique_greedy(empty_graph, theta_left=2, theta_right=2) is None


class TestQuasiBiclique:
    def test_predicate_biclique_is_qb_for_any_delta(self, complete_graph):
        assert is_quasi_biclique(complete_graph, [0, 1, 2], [0, 1, 2], 0.0)

    def test_predicate_counts_relative_budget(self, example_graph):
        # v3 misses 3 of the 5 right vertices (needs delta >= 3/5) and each
        # missed right vertex misses the single left vertex (needs delta >= 1).
        assert not is_quasi_biclique(example_graph, [3], [0, 1, 2, 3, 4], 0.5)
        assert is_quasi_biclique(example_graph, [3], [0, 1, 2, 3, 4], 1.0)
        # v0 is adjacent to u0, u1 and u3, so this pair is a 0-QB (a biclique).
        assert is_quasi_biclique(example_graph, [0], [0, 1, 3], 0.0)

    def test_exact_enumeration_outputs_are_qbs(self, example_graph):
        for qb in enumerate_maximal_quasi_bicliques(example_graph, 0.3, 2, 2):
            assert is_quasi_biclique(example_graph, qb.left, qb.right, 0.3)
            assert len(qb.left) >= 2 and len(qb.right) >= 2

    def test_exact_enumeration_maximality(self, example_graph):
        results = enumerate_maximal_quasi_bicliques(example_graph, 0.3, 2, 2)
        for first in results:
            for second in results:
                if first != second:
                    assert not second.contains(first)

    def test_greedy_finder_outputs_are_qbs(self, example_graph):
        structures = find_quasi_bicliques_greedy(example_graph, 0.25, 2, 2)
        for structure in structures:
            assert is_quasi_biclique(example_graph, structure.left, structure.right, 0.25)
            assert len(structure.left) >= 2 and len(structure.right) >= 2

    def test_greedy_finder_with_explicit_seeds(self, example_graph):
        from repro.core import Biplex

        seeds = [Biplex.of([4], [0, 1, 2, 3, 4])]
        structures = find_quasi_bicliques_greedy(example_graph, 0.4, 1, 3, seeds=seeds)
        assert structures, "the seed itself satisfies the constraints"

    def test_seed_k_formula(self):
        # k = max(1, floor(delta * min(theta_L, theta_R))): the largest k for
        # which every k-biplex meeting the thresholds is guaranteed a δ-QB.
        assert quasi_biclique_seed_k(0.25, 4, 4) == 1
        assert quasi_biclique_seed_k(0.5, 4, 8) == 2    # min side governs
        assert quasi_biclique_seed_k(0.5, 8, 4) == 2    # symmetric in the thetas
        assert quasi_biclique_seed_k(0.3, 4, 4) == 1    # floor, not ceil
        assert quasi_biclique_seed_k(0.1, 2, 2) == 1    # clamped to >= 1
        assert quasi_biclique_seed_k(0.75, 8, 8) == 6

    @pytest.mark.parametrize("delta,theta_left,theta_right", [(0.5, 4, 8), (0.75, 4, 4)])
    def test_unclamped_seed_k_biplexes_are_qbs(self, delta, theta_left, theta_right):
        # Whenever the clamp does not kick in, *every* k_seed-biplex meeting
        # the thresholds must already satisfy the δ-QB budgets (which is the
        # guarantee the seeding is derived from).
        k_seed = quasi_biclique_seed_k(delta, theta_left, theta_right)
        assert k_seed <= delta * min(theta_left, theta_right)
        graph = erdos_renyi_bipartite(10, 10, num_edges=70, seed=9)
        from repro.core import ITraversal

        seeds = ITraversal(
            graph, k_seed, theta_left=theta_left, theta_right=theta_right
        ).enumerate()
        for seed in seeds:
            assert is_quasi_biclique(graph, seed.left, seed.right, delta)
