"""Tests for the large-MBP extension (Section 5)."""

import pytest

from repro.baselines import enumerate_mbps_bruteforce
from repro.core import ITraversal, filter_large
from repro.graph import erdos_renyi_bipartite, paper_example_graph, planted_biplex_graph


def brute_large(graph, k, theta):
    return {
        s
        for s in enumerate_mbps_bruteforce(graph, k)
        if len(s.left) >= theta and len(s.right) >= theta
    }


class TestLargeEnumeration:
    @pytest.mark.parametrize("theta", [2, 3])
    def test_matches_bruteforce_on_example(self, example_graph, theta):
        expected = brute_large(example_graph, 1, theta)
        enumerator = ITraversal(example_graph, 1, theta_left=theta, theta_right=theta)
        assert set(enumerator.enumerate()) == expected

    @pytest.mark.parametrize("theta", [2, 3])
    @pytest.mark.parametrize("use_core", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bruteforce_on_random_graphs(self, seed, theta, use_core):
        graph = erdos_renyi_bipartite(5, 5, num_edges=12 + seed, seed=seed)
        expected = brute_large(graph, 1, theta)
        enumerator = ITraversal(
            graph, 1, theta_left=theta, theta_right=theta, prep=None if use_core else "off"
        )
        assert set(enumerator.enumerate()) == expected

    def test_planted_block_is_found(self):
        graph = planted_biplex_graph(
            15, 15, block_left=5, block_right=5, k=1, background_edges=10, seed=3
        )
        solutions = ITraversal(graph, 1, theta_left=4, theta_right=4).enumerate()
        assert solutions, "the planted near-biplex block must be recovered"
        assert all(len(s.left) >= 4 and len(s.right) >= 4 for s in solutions)

    def test_asymmetric_thresholds(self, example_graph):
        enumerator = ITraversal(example_graph, 1, theta_left=1, theta_right=4)
        for solution in enumerator.enumerate():
            assert len(solution.left) >= 1
            assert len(solution.right) >= 4

    def test_core_graph_exposed(self, example_graph):
        enumerator = ITraversal(example_graph, 1, theta_left=3, theta_right=3)
        assert enumerator.prep.graph.n_left <= example_graph.n_left
        assert enumerator.prep.graph.n_right <= example_graph.n_right

    def test_translated_ids_reference_original_graph(self):
        graph = planted_biplex_graph(
            12, 12, block_left=4, block_right=4, k=1, background_edges=5, seed=9
        )
        for solution in ITraversal(graph, 1, theta_left=3, theta_right=3).enumerate():
            for v in solution.left:
                assert 0 <= v < graph.n_left
            for u in solution.right:
                assert 0 <= u < graph.n_right


class TestAgainstPostFiltering:
    def test_equals_enumerate_then_filter(self, example_graph):
        everything = ITraversal(example_graph, 1).enumerate()
        filtered = set(filter_large(everything, 3, 3))
        direct = set(ITraversal(example_graph, 1, theta_left=3, theta_right=3).enumerate())
        assert direct == filtered

    def test_filter_large_keeps_order(self, example_graph):
        everything = ITraversal(example_graph, 1).enumerate()
        filtered = filter_large(everything, 1, 1)
        assert filtered == [s for s in everything if len(s.left) >= 1 and len(s.right) >= 1]


class TestTruncationPropagation:
    """A capped run must never be reported as complete (PR 5 bugfix).

    The engine raises the result-limit flag *before* yielding the capped
    solution, so even a consumer that stops iterating the moment it has its
    ``max_results`` solutions (break / islice — the natural way to respect
    a cap) observes ``stats.truncated``; previously the flag was only set
    when the abandoned generator was resumed, which never happens.
    """

    def test_max_results_one_marks_truncated(self, example_graph):
        enumerator = ITraversal(example_graph, 1, theta_left=1, theta_right=1, max_results=1)
        solutions = enumerator.enumerate()
        assert len(solutions) == 1
        assert enumerator.stats.hit_result_limit
        assert enumerator.stats.truncated

    def test_consumer_break_at_cap_marks_truncated(self, example_graph):
        enumerator = ITraversal(example_graph, 1, theta_left=1, theta_right=1, max_results=1)
        for _ in enumerator.run():
            break  # the generator is never resumed past the capped yield
        assert enumerator.stats.hit_result_limit
        assert enumerator.stats.truncated

    def test_islice_consumption_marks_truncated(self, example_graph):
        from itertools import islice

        enumerator = ITraversal(example_graph, 1, theta_left=1, theta_right=1, max_results=2)
        taken = list(islice(enumerator.run(), 2))
        assert len(taken) == 2
        assert enumerator.stats.truncated

    def test_tiny_time_limit_marks_truncated(self, example_graph):
        enumerator = ITraversal(example_graph, 1, theta_left=1, theta_right=1, time_limit=1e-9)
        solutions = enumerator.enumerate()
        assert solutions == []
        assert enumerator.stats.hit_time_limit
        assert enumerator.stats.truncated

    def test_uncapped_run_is_not_marked(self, example_graph):
        enumerator = ITraversal(example_graph, 1, theta_left=2, theta_right=2)
        enumerator.enumerate()
        assert not enumerator.stats.truncated

    def test_filtered_capped_solutions_keep_their_status(self, example_graph):
        # filter_large itself is status-free; the run's stats are the source
        # of truth for completeness of the filtered list.
        enumerator = ITraversal(example_graph, 1, theta_left=1, theta_right=1, max_results=1)
        filtered = filter_large(enumerator.enumerate(), 2, 2)
        assert len(filtered) <= 1
        assert enumerator.stats.truncated

    def test_itraversal_break_at_cap_marks_truncated(self, example_graph):
        # The fix lives in the engine, so the plain traversals gain it too.
        algorithm = ITraversal(example_graph, 1, max_results=1)
        next(algorithm.run())
        assert algorithm.stats.hit_result_limit


class TestPruningDoesNotOverPrune:
    @pytest.mark.parametrize("seed", range(4))
    def test_theta_larger_than_any_solution(self, seed):
        graph = erdos_renyi_bipartite(4, 4, num_edges=6, seed=200 + seed)
        enumerator = ITraversal(graph, 1, theta_left=10, theta_right=10)
        assert enumerator.enumerate() == []

    def test_theta_one_equals_plain_enumeration_nonempty_sides(self, example_graph):
        plain = {
            s
            for s in ITraversal(example_graph, 1).enumerate()
            if len(s.left) >= 1 and len(s.right) >= 1
        }
        assert set(ITraversal(example_graph, 1, theta_left=1, theta_right=1).enumerate()) == plain
