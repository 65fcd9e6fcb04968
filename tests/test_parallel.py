"""Tests of the sharded parallel enumeration engine (repro.parallel).

The correctness bar is the tentpole contract: any ``jobs`` value produces
exactly the serial solution set, the default ``parallel_order="sorted"``
output equals the canonically-sorted serial output as a *list*, limits are
enforced cooperatively, and the merged stats follow the documented
contract.  The systematic algorithm × jobs × prep sweep lives in
``test_backend_differential.py``; this module covers the engine-specific
machinery — shard planning, jobs resolution, stats merging, cancellation.
"""

from __future__ import annotations

import os

import pytest
from graph_samples import random_graphs

from repro.core import BTraversal, ITraversal, LargeMBPEnumerator
from repro.core.btraversal import btraversal_config
from repro.core.traversal import ReverseSearchEngine, TraversalConfig
from repro.core.verify import canonical, check_all_solutions, same_solutions
from repro.graph import erdos_renyi_bipartite, paper_example_graph
from repro.parallel import JOBS_ENV_VAR, resolve_jobs, shard_plan


#: Big enough that the shard plan has several entries (the engine falls
#: back to serial below two shards) and the solution space is non-trivial.
GRAPHS = [
    paper_example_graph(),
    erdos_renyi_bipartite(10, 10, edge_density=2.0, seed=17),
    erdos_renyi_bipartite(12, 8, edge_density=2.5, seed=3),
]


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_variable_supplies_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(None) == 3

    def test_explicit_value_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=JOBS_ENV_VAR):
            resolve_jobs(None)

    def test_config_rejects_negative_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            TraversalConfig(jobs=-2)

    def test_config_rejects_unknown_parallel_order(self):
        with pytest.raises(ValueError, match="parallel_order"):
            TraversalConfig(parallel_order="dfs")


class TestShardPlan:
    def test_exclusion_prefixes_mirror_serial_accumulation(self):
        graph = paper_example_graph()
        engine = ReverseSearchEngine(graph, 1, TraversalConfig())
        root = engine._initial_solution()
        shards = shard_plan(engine, root)
        assert len(shards) >= 2
        left_seen = []
        for shard in shards:
            assert shard.side == "L"  # iTraversal is left-anchored
            assert shard.vertex not in root.left
            assert shard.exclusion == frozenset(left_seen)
            left_seen.append(shard.vertex)

    def test_btraversal_plan_covers_both_sides_without_exclusions(self):
        graph = paper_example_graph()
        engine = ReverseSearchEngine(graph, 1, btraversal_config())
        root = engine._initial_solution()
        shards = shard_plan(engine, root)
        assert {shard.side for shard in shards} == {"L", "R"}
        assert all(shard.exclusion == frozenset() for shard in shards)

    def test_large_mbp_root_pruning_empties_the_plan(self):
        # theta_right above |R|: serial returns no children from the root,
        # so the plan must be empty too (right-shrinking solution pruning).
        graph = paper_example_graph()
        config = TraversalConfig(theta_left=2, theta_right=graph.n_right + 1)
        engine = ReverseSearchEngine(graph, 1, config)
        root = engine._initial_solution()
        assert shard_plan(engine, root) == []


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("k", (1, 2))
    def test_sorted_mode_equals_sorted_serial_exactly(self, k):
        for graph in GRAPHS:
            serial = ITraversal(graph, k, jobs=1).enumerate()
            parallel_algorithm = ITraversal(graph, k, jobs=2)
            parallel = parallel_algorithm.enumerate()
            assert same_solutions(serial, parallel)
            if parallel_algorithm.stats.num_shards >= 2:
                # List equality, not just set equality: when the parallel
                # machinery engages, sorted mode is pinned to the canonical
                # order — the serial output sorted the same way, duplicates
                # included (there are none).  A degenerate plan (< 2
                # shards) falls back to the serial DFS and keeps its order.
                assert [s.key() for s in parallel] == canonical(serial)
            check_all_solutions(graph, parallel, k, label=f"parallel jobs=2 k={k}")

    def test_completion_mode_streams_the_same_set(self):
        graph = GRAPHS[1]
        serial = ITraversal(graph, 1, jobs=1).enumerate()
        engine = ReverseSearchEngine(
            graph, 1, TraversalConfig(jobs=2, parallel_order="completion")
        )
        parallel = engine.enumerate()
        assert same_solutions(serial, parallel)
        assert len(parallel) == len(set(parallel))  # merge deduplicates

    def test_btraversal_parallel(self):
        graph = GRAPHS[0]
        serial = BTraversal(graph, 1, jobs=1).enumerate()
        parallel = BTraversal(graph, 1, jobs=2).enumerate()
        assert [s.key() for s in parallel] == canonical(serial)

    def test_right_anchored_parallel(self):
        graph = GRAPHS[2]
        serial = ITraversal(graph, 1, anchor="right", jobs=1).enumerate()
        parallel = ITraversal(graph, 1, anchor="right", jobs=2).enumerate()
        assert same_solutions(serial, parallel)

    def test_alternate_output_order_parallel(self):
        graph = GRAPHS[1]
        serial = ITraversal(graph, 1, output_order="alternate", jobs=1).enumerate()
        parallel = ITraversal(graph, 1, output_order="alternate", jobs=2).enumerate()
        assert same_solutions(serial, parallel)

    def test_large_mbp_enumerator_parallel(self):
        for graph in GRAPHS:
            serial = LargeMBPEnumerator(graph, 1, theta=2, jobs=1).enumerate()
            parallel = LargeMBPEnumerator(graph, 1, theta=2, jobs=2).enumerate()
            assert same_solutions(serial, parallel)

    def test_many_jobs_beyond_shard_count(self):
        graph = GRAPHS[0]
        serial = ITraversal(graph, 1, jobs=1).enumerate()
        parallel = ITraversal(graph, 1, jobs=16).enumerate()
        assert same_solutions(serial, parallel)

    def test_env_default_engages_the_parallel_engine(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        graph = GRAPHS[1]
        algorithm = ITraversal(graph, 1)
        solutions = algorithm.enumerate()
        assert algorithm.stats.num_shards >= 2  # proof the parallel path ran
        monkeypatch.delenv(JOBS_ENV_VAR)
        assert same_solutions(ITraversal(graph, 1).enumerate(), solutions)


class TestStatsMergeContract:
    def test_merged_counters(self):
        graph = GRAPHS[1]
        serial_algorithm = ITraversal(graph, 1, jobs=1)
        serial = serial_algorithm.enumerate()
        algorithm = ITraversal(graph, 1, jobs=2)
        parallel = algorithm.enumerate()
        stats = algorithm.stats
        assert stats.num_reported == len(parallel) == len(serial)
        assert stats.num_shards >= 2
        # Work counters are sums over shard traversals: unique discoveries
        # plus the cross-shard duplicates the merge removed.  (They are not
        # comparable to the serial counters in either direction: shards
        # rediscover each other's solutions, but they also start from exact
        # prefix exclusions and so trigger fewer exclusion-shrink
        # re-explorations than one serial DFS does.)
        assert stats.num_solutions == len(serial) + stats.num_duplicate_solutions
        assert stats.num_links > 0
        assert stats.elapsed_seconds > 0.0
        assert not stats.truncated

    def test_work_counters_are_deterministic(self):
        # Each shard's traversal is a pure function of (root, anchor,
        # exclusion); the merged sums must not depend on scheduling.
        graph = GRAPHS[1]
        runs = []
        for _ in range(2):
            algorithm = ITraversal(graph, 1, jobs=2)
            algorithm.enumerate()
            stats = algorithm.stats
            runs.append(
                (
                    stats.num_solutions,
                    stats.num_links,
                    stats.num_almost_sat_graphs,
                    stats.num_local_solutions,
                    stats.num_duplicate_solutions,
                )
            )
        assert runs[0] == runs[1]


class TestCooperativeLimits:
    def test_max_results_cap(self):
        graph = GRAPHS[1]
        algorithm = ITraversal(graph, 1, max_results=5, jobs=2)
        solutions = algorithm.enumerate()
        assert len(solutions) == 5
        assert len(set(solutions)) == 5
        assert algorithm.stats.hit_result_limit
        assert algorithm.stats.truncated

    def test_tiny_time_limit_reports_truncation(self):
        graph = GRAPHS[1]
        algorithm = ITraversal(graph, 1, time_limit=1e-9, jobs=2)
        solutions = algorithm.enumerate()
        assert solutions == []
        assert algorithm.stats.hit_time_limit

    def test_consumer_break_keeps_serial_reporting_semantics(self):
        graph = GRAPHS[1]
        algorithm = ITraversal(graph, 1, jobs=2)
        iterator = algorithm.run()
        next(iterator)
        iterator.close()
        assert algorithm.stats.num_reported == 1
        assert algorithm.stats.elapsed_seconds > 0.0


class TestDifferentialSweep:
    """Small-graph sweep against the serial engine (serial fallback paths
    included: tiny graphs often yield < 2 shards)."""

    @pytest.mark.parametrize("k", (1, 2))
    def test_random_graphs(self, k):
        for index, graph in enumerate(random_graphs(4, max_side=6, seed=99)):
            serial = ITraversal(graph, k, jobs=1).enumerate()
            parallel = ITraversal(graph, k, jobs=2).enumerate()
            assert same_solutions(serial, parallel), f"g{index} k={k}"
