"""Tests for the bTraversal baseline."""

import time

import pytest

from repro.baselines import enumerate_mbps_bruteforce
from repro.core import BTraversal
from repro.graph import erdos_renyi_bipartite


class TestConfig:
    def test_btraversal_config_flags(self, example_graph):
        config = BTraversal(example_graph, 1).config
        assert config.variant == "btraversal"
        assert config.left_anchored is False
        assert config.right_shrinking is False
        assert config.exclusion is False
        assert config.initial_solution == "arbitrary"


class TestCorrectness:
    def test_matches_bruteforce_on_example(self, example_graph):
        for k in (1, 2):
            expected = set(enumerate_mbps_bruteforce(example_graph, k))
            assert set(BTraversal(example_graph, k).enumerate()) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bruteforce_on_random_graphs(self, seed):
        graph = erdos_renyi_bipartite(4, 4, num_edges=5 + seed, seed=50 + seed)
        for k in (1, 2):
            expected = set(enumerate_mbps_bruteforce(graph, k))
            assert set(BTraversal(graph, k).enumerate()) == expected

    def test_same_solutions_as_itraversal(self, example_graph):
        from repro.core import ITraversal

        assert set(BTraversal(example_graph, 1).enumerate()) == set(
            ITraversal(example_graph, 1).enumerate()
        )


class TestBehaviour:
    def test_generates_more_links_than_itraversal(self, example_graph):
        """The bTraversal solution graph is denser (the point of the paper)."""
        from repro.core import ITraversal

        btraversal = BTraversal(example_graph, 1)
        btraversal.enumerate()
        itraversal = ITraversal(example_graph, 1)
        itraversal.enumerate()
        assert btraversal.stats.num_links > itraversal.stats.num_links

    def test_max_results_limit(self, example_graph):
        algorithm = BTraversal(example_graph, 1, max_results=2)
        assert len(algorithm.enumerate()) == 2
        assert algorithm.stats.hit_result_limit

    def test_rejects_invalid_k(self, example_graph):
        with pytest.raises(ValueError):
            BTraversal(example_graph, 0)


class TestInflation:
    """bTraversal with the inflation EnumAlmostSat, Figure 7's baseline."""

    @pytest.mark.parametrize("seed", range(4))
    def test_uncapped_runs_equal_refined(self, seed):
        graph = erdos_renyi_bipartite(5, 6, num_edges=15, seed=70 + seed)
        for k in (1, 2, 3):
            refined = BTraversal(graph, k).enumerate()
            inflation = BTraversal(graph, k, local_enumeration="inflation").enumerate()
            assert len(inflation) == len(refined)
            assert set(inflation) == set(refined)

    def test_time_limit_bounds_the_plex_search(self):
        """Each k-plex search gets what is left of the budget; a cut one ends the run.

        On this dense 40 × 40 graph the fifth almost-satisfying graph's
        search alone runs for seconds (17.6 s in all when the search was
        uncapped).
        """
        graph = erdos_renyi_bipartite(40, 40, num_edges=800, seed=1)
        algorithm = BTraversal(
            graph, 1, max_results=50, time_limit=0.2, local_enumeration="inflation", jobs=1
        )
        start = time.perf_counter()
        solutions = algorithm.enumerate()
        assert time.perf_counter() - start < 2.0
        assert algorithm.stats.hit_time_limit
        assert len(solutions) < 50
