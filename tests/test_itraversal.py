"""Tests for the iTraversal algorithm and its variants."""

import pytest
from graph_samples import ROUTES, via

from repro.baselines import enumerate_mbps_bruteforce
from repro.core import (
    Biplex,
    ITraversal,
    TraversalConfig,
    check_all_solutions,
    enumerate_mbps,
    is_maximal_k_biplex,
    itraversal_config,
)
from repro.graph import erdos_renyi_bipartite, paper_example_graph


class TestBasics:
    def test_rejects_invalid_k(self, example_graph):
        with pytest.raises(ValueError):
            ITraversal(example_graph, 0)

    def test_rejects_unknown_variant(self, example_graph):
        with pytest.raises(ValueError):
            ITraversal(example_graph, 1, variant="bogus")

    def test_rejects_unknown_anchor(self, example_graph):
        with pytest.raises(ValueError):
            ITraversal(example_graph, 1, anchor="top")

    def test_initial_solution_is_left_anchored(self, example_graph):
        algorithm = ITraversal(example_graph, 1)
        h0 = algorithm.initial_solution()
        assert set(h0.right) == set(example_graph.right_vertices())
        assert set(h0.left) == {4}

    def test_initial_solution_right_anchor(self, example_graph):
        algorithm = ITraversal(example_graph, 1, anchor="right")
        h0 = algorithm.initial_solution()
        assert set(h0.left) == set(example_graph.left_vertices())

    def test_config_exposed(self, example_graph):
        algorithm = ITraversal(example_graph, 1, variant="no-exclusion")
        assert algorithm.config.exclusion is False
        assert algorithm.config.right_shrinking is True


class TestCorrectness:
    def test_matches_bruteforce_on_example(self, example_graph):
        for k in (1, 2):
            expected = set(enumerate_mbps_bruteforce(example_graph, k))
            assert set(ITraversal(example_graph, k).enumerate()) == expected

    @pytest.mark.parametrize("variant", ["full", "no-exclusion", "left-anchored-only"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_all_variants_match_bruteforce(self, example_graph, variant, k):
        expected = set(enumerate_mbps_bruteforce(example_graph, k))
        got = set(ITraversal(example_graph, k, variant=variant).enumerate())
        assert got == expected

    @pytest.mark.parametrize("anchor", ["left", "right"])
    def test_both_anchors_match_bruteforce(self, example_graph, anchor):
        expected = set(enumerate_mbps_bruteforce(example_graph, 1))
        got = set(ITraversal(example_graph, 1, anchor=anchor).enumerate())
        assert got == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_on_random_graphs(self, seed):
        graph = erdos_renyi_bipartite(4, 5, num_edges=6 + seed, seed=seed)
        for k in (1, 2):
            expected = set(enumerate_mbps_bruteforce(graph, k))
            got = set(ITraversal(graph, k).enumerate())
            assert got == expected

    def test_solutions_are_valid_and_unique(self, example_graph):
        solutions = ITraversal(example_graph, 1).enumerate()
        check_all_solutions(example_graph, solutions, 1)

    def test_no_solution_is_subset_of_another(self, example_graph):
        solutions = ITraversal(example_graph, 1).enumerate()
        for first in solutions:
            for second in solutions:
                if first != second:
                    assert not (first.left <= second.left and first.right <= second.right)

    def test_known_solutions_present(self, example_graph):
        solutions = set(ITraversal(example_graph, 1).enumerate())
        assert Biplex.of([4], [0, 1, 2, 3, 4]) in solutions
        assert Biplex.of([0, 1, 4], [0, 1, 2, 3]) in solutions
        assert Biplex.of([1, 2, 4], [0, 1, 2]) in solutions

    def test_empty_graph(self):
        graph = erdos_renyi_bipartite(3, 3, num_edges=0, seed=1)
        solutions = ITraversal(graph, 1).enumerate()
        # (∅, R) is the only maximal 1-biplex together with (L, ∅)-style sets
        # reachable by dropping right vertices; verify against brute force.
        assert set(solutions) == set(enumerate_mbps_bruteforce(graph, 1))


class TestLimits:
    def test_max_results(self, example_graph):
        algorithm = ITraversal(example_graph, 1, max_results=3)
        solutions = algorithm.enumerate()
        assert len(solutions) == 3
        assert algorithm.stats.hit_result_limit is True
        assert algorithm.stats.truncated is True

    def test_time_limit_zero_truncates(self, example_graph):
        algorithm = ITraversal(example_graph, 1, time_limit=0.0)
        solutions = algorithm.enumerate()
        assert algorithm.stats.hit_time_limit is True
        assert len(solutions) <= 1

    def test_streaming_stop_early(self, example_graph):
        algorithm = ITraversal(example_graph, 1)
        iterator = algorithm.run()
        first = next(iterator)
        assert isinstance(first, Biplex)

    def test_early_break_finalizes_stats(self, example_graph):
        # Regression: abandoning the generator mid-run (early break /
        # close()) used to leave stats.elapsed_seconds at 0.0 because the
        # finalization line after the DFS never executed.
        algorithm = ITraversal(example_graph, 1)
        iterator = algorithm.run()
        next(iterator)
        iterator.close()
        assert algorithm.stats.elapsed_seconds > 0.0
        assert algorithm.stats.num_reported == 1

    def test_early_break_in_for_loop_finalizes_stats(self, example_graph):
        algorithm = ITraversal(example_graph, 1)
        for _ in algorithm.run():
            break
        assert algorithm.stats.elapsed_seconds > 0.0

    def test_stats_counts(self, example_graph):
        algorithm = ITraversal(example_graph, 1)
        solutions = algorithm.enumerate()
        stats = algorithm.stats
        assert stats.num_reported == len(solutions)
        # Serial runs discover each solution exactly once; a parallel run
        # (REPRO_JOBS > 1) additionally counts cross-shard rediscoveries,
        # which the coordinator tallies in num_duplicate_solutions.
        assert stats.num_solutions == len(solutions) + stats.num_duplicate_solutions
        assert stats.num_links >= stats.num_solutions - 1
        assert stats.elapsed_seconds > 0


class TestRightExtensible:
    """The right-shrinking test must match a brute-force scan over all of R.

    In particular the ``len(left) <= k`` regime (where even a right vertex
    with no neighbour in ``left`` may be addable) used to fall back to
    scanning every right vertex of G; it now tests a single zero-adjacency
    representative, which must not change any answer.
    """

    @staticmethod
    def _bruteforce(graph, local, k):
        from repro.core import can_add_right

        return any(
            can_add_right(graph, set(local.left), set(local.right), u, k)
            for u in graph.right_vertices()
            if u not in local.right
        )

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("route", ROUTES)
    def test_matches_bruteforce_scan(self, k, route):
        import random

        from repro.core.traversal import ReverseSearchEngine, TraversalConfig
        from repro.graph.bipartite import subsets_within_budget

        rng = random.Random(11)
        graphs = [
            erdos_renyi_bipartite(
                rng.randint(2, 5), rng.randint(2, 5), num_edges=rng.randint(1, 4), seed=index
            )
            for index in range(4)
        ]
        for graph in graphs:
            engine = ReverseSearchEngine(via(route, graph), k, TraversalConfig())
            for left in subsets_within_budget(list(graph.left_vertices()), k + 1):
                for right in subsets_within_budget(list(graph.right_vertices()), 2):
                    local = Biplex.of(left, right)
                    expected = self._bruteforce(graph, local, k)
                    assert engine._right_extensible(local) == expected
        # Multi-word masks: more than 64 right vertices, with |L| on both
        # sides of k.
        for n_right in (80, 110):
            graph = erdos_renyi_bipartite(12, n_right, num_edges=4 * n_right, seed=n_right)
            engine = ReverseSearchEngine(via(route, graph), k, TraversalConfig())
            outcomes = set()
            for _ in range(150):
                left = rng.sample(range(12), rng.randint(1, 12))
                right = rng.sample(range(n_right), rng.randint(0, 3))
                local = Biplex.of(left, right)
                expected = self._bruteforce(graph, local, k)
                assert engine._right_extensible(local) == expected
                outcomes.add(expected)
            assert outcomes == {False, True}

    @pytest.mark.parametrize("route", ROUTES)
    def test_probe_follows_in_place_updates(self, route):
        # An edge insertion lifts u3 from degree 1 to 2 = |L| - k, past the
        # degree cutoff of the probe's scan order: an order cached before
        # the update would stop before u3.
        from repro.core.traversal import ReverseSearchEngine, TraversalConfig
        from repro.graph import BipartiteGraph

        graph = via(
            route,
            BipartiteGraph(3, 4, edges=[(0, 0), (1, 0), (2, 0), (0, 1), (1, 2), (0, 3)]),
        )
        engine = ReverseSearchEngine(graph, 1, TraversalConfig(prep="off"))
        assert engine.graph is graph
        local = Biplex.of([0, 1, 2], [0])
        assert engine._right_extensible(local) is False
        assert self._bruteforce(graph, local, 1) is False
        graph.add_edge(1, 3)
        assert self._bruteforce(graph, local, 1) is True
        assert engine._right_extensible(local) is True


class TestSizeThresholds:
    def test_theta_filters_small_solutions(self, example_graph):
        all_solutions = ITraversal(example_graph, 1).enumerate()
        large = ITraversal(example_graph, 1, theta_left=2, theta_right=3).enumerate()
        expected = {
            s for s in all_solutions if len(s.left) >= 2 and len(s.right) >= 3
        }
        assert set(large) == expected

    def test_theta_zero_keeps_everything(self, example_graph):
        assert set(ITraversal(example_graph, 1, theta_left=0, theta_right=0).enumerate()) == set(
            ITraversal(example_graph, 1).enumerate()
        )


class TestOutputOrder:
    def test_alternate_order_same_solution_set(self, example_graph):
        pre = set(ITraversal(example_graph, 1, output_order="pre").enumerate())
        alternate = set(ITraversal(example_graph, 1, output_order="alternate").enumerate())
        assert pre == alternate


class TestPinnedWork:
    """A hot-path rewrite must do the same work, only faster.

    Two capped k=1 runs on the paper's stand-in graphs pin the ordered
    output (a digest of the serial DFS order) and the ``TraversalStats``
    work counters: the first 300 MBPs on opsahl (the Fig. 7a first-N
    protocol) and the first 500 on writer at θ_L = θ_R = 4, which reaches
    the Section 5 anchor prune.
    """

    COUNTERS = (
        "num_reported",
        "num_links",
        "num_almost_sat_graphs",
        "num_local_solutions",
        "num_pruned_size_filter",
        "num_pruned_subtree",
        "num_pruned_anchor",
        "num_pruned_exclusion",
        "num_pruned_right_extensible",
    )

    @pytest.mark.parametrize(
        "dataset, kwargs, digest, counters",
        [
            (
                "opsahl",
                {"max_results": 300},
                "abe3ef6d79203079",
                (300, 10509, 17065, 39310, 0, 0, 0, 14874, 13927),
            ),
            (
                "writer",
                {"max_results": 500, "theta_left": 4, "theta_right": 4},
                "da3f54d3867ce26a",
                (500, 2472, 3493, 7169, 2, 0, 5668, 2768, 1929),
            ),
        ],
    )
    def test_ordered_output_and_counters(self, dataset, kwargs, digest, counters):
        import hashlib

        from repro.analysis.datasets import load_dataset

        # prep and jobs pinned: REPRO_PREP=core+order reorders candidates
        # and REPRO_JOBS=2 switches to sorted parallel output.
        algorithm = ITraversal(load_dataset(dataset), 1, prep="core", jobs=1, **kwargs)
        hasher = hashlib.sha256()
        for solution in algorithm.run():
            hasher.update(repr(solution.key()).encode())
        assert hasher.hexdigest()[:16] == digest
        assert tuple(getattr(algorithm.stats, name) for name in self.COUNTERS) == counters


class TestFunctionalWrappers:
    def test_enumerate_mbps(self, example_graph):
        solutions, stats = enumerate_mbps(example_graph, 1)
        assert stats.num_reported == len(solutions)
        assert set(solutions) == set(ITraversal(example_graph, 1).enumerate())

    def test_enumerate_mbps_respects_max_results(self, example_graph):
        solutions, stats = enumerate_mbps(example_graph, 1, max_results=2)
        assert len(solutions) == 2
        assert stats.truncated


class TestConfigHelpers:
    def test_itraversal_config_defaults(self):
        config = itraversal_config()
        assert config.left_anchored and config.right_shrinking and config.exclusion
        assert config.initial_solution == "anchored"

    def test_traversal_config_validation(self):
        with pytest.raises(ValueError):
            TraversalConfig(initial_solution="nope")
        with pytest.raises(ValueError):
            TraversalConfig(output_order="sideways")
        with pytest.raises(ValueError):
            TraversalConfig(theta_left=-1)
