"""Tests of the sharded parallel enumeration engine (repro.parallel).

The correctness bar is the tentpole contract: any ``jobs`` value produces
exactly the serial solution set, the parallel output equals the
canonically-sorted serial output as a *list*, limits are
enforced cooperatively, and the merged stats follow the documented
contract.  The systematic algorithm × jobs × prep sweep lives in
``test_backend_differential.py``; this module covers the engine-specific
machinery — shard planning, jobs resolution, stats merging, cancellation.
"""

from __future__ import annotations

import os

import pytest
from graph_samples import random_graphs

from repro.core import BTraversal, EnumerationSession, ITraversal
from repro.core.traversal import ReverseSearchEngine, TraversalConfig
from repro.core.verify import canonical, check_all_solutions, same_solutions
from repro.graph import erdos_renyi_bipartite, mask_of, paper_example_graph
from repro.obs import reset_registry
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
        # Parallel output is always canonically sorted; there is no knob.
        with pytest.raises(TypeError, match="parallel_order"):
            TraversalConfig(parallel_order="sorted")


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
            assert shard.exclusion == mask_of(left_seen)
            left_seen.append(shard.vertex)

    def test_btraversal_plan_covers_both_sides_without_exclusions(self):
        graph = paper_example_graph()
        engine = ReverseSearchEngine(graph, 1, TraversalConfig(variant="btraversal"))
        root = engine._initial_solution()
        shards = shard_plan(engine, root)
        assert {shard.side for shard in shards} == {"L", "R"}
        assert all(shard.exclusion == 0 for shard in shards)

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

    def test_btraversal_parallel(self):
        graph = GRAPHS[0]
        serial = BTraversal(graph, 1, jobs=1).enumerate()
        parallel = BTraversal(graph, 1, jobs=2).enumerate()
        assert [s.key() for s in parallel] == canonical(serial)

    def test_right_anchored_parallel(self):
        # The right-anchored traversal is an ordinary run on the swapped
        # graph, so its parallel output keeps the canonical key order.
        graph = GRAPHS[2].swap_sides()
        serial = ITraversal(graph, 1, jobs=1).enumerate()
        algorithm = ITraversal(graph, 1, jobs=2)
        parallel = algorithm.enumerate()
        assert same_solutions(serial, parallel)
        assert algorithm.stats.num_shards >= 2
        assert [s.key() for s in parallel] == canonical(serial)

    def test_alternate_output_order_parallel(self):
        graph = GRAPHS[1]
        serial = ITraversal(graph, 1, output_order="alternate", jobs=1).enumerate()
        parallel = ITraversal(graph, 1, output_order="alternate", jobs=2).enumerate()
        assert same_solutions(serial, parallel)

    def test_large_mbp_enumerator_parallel(self):
        for graph in GRAPHS:
            serial = ITraversal(graph, 1, theta_left=2, theta_right=2, jobs=1).enumerate()
            parallel = ITraversal(graph, 1, theta_left=2, theta_right=2, jobs=2).enumerate()
            assert same_solutions(serial, parallel)

    def test_many_jobs_beyond_shard_count(self):
        graph = GRAPHS[0]
        serial = ITraversal(graph, 1, jobs=1).enumerate()
        parallel = ITraversal(graph, 1, jobs=16).enumerate()
        assert same_solutions(serial, parallel)

    def test_pool_never_outgrows_the_cores(self, monkeypatch):
        # jobs arrives from queries and flags: asking for many workers must
        # not fork one process per root anchor.
        monkeypatch.delenv("REPRO_OBS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        graph = GRAPHS[2]
        engine = ReverseSearchEngine(graph, 1, TraversalConfig(jobs=1))
        assert len(shard_plan(engine, engine._initial_solution())) >= 8
        registry = reset_registry()
        try:
            algorithm = ITraversal(graph, 1, jobs=8)
            parallel = algorithm.enumerate()
            assert registry.counter_value("parallel_workers_total") == 2
        finally:
            reset_registry()
        assert algorithm.config.jobs == 8 and algorithm.stats.num_shards >= 8
        assert same_solutions(ITraversal(graph, 1, jobs=1).enumerate(), parallel)

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

    def test_merge_is_the_fold_of_every_shard(self):
        """The merged prune-site counters, bound prunes and best size equal
        the fold of every shard's own stats, each shard run in process the
        way a worker runs it, plus the coordinator's own size filter of the
        root.  On both inputs the root misses θ: with ``prep="off"`` it is
        ``(∅, R)``."""
        from dataclasses import replace

        from repro.obs import PRUNE_SITE_FIELDS
        from repro.prep import default_prep

        names = [name for _, name in PRUNE_SITE_FIELDS] + ["num_pruned_by_bound"]
        for prep in (default_prep(), "off"):
            config = TraversalConfig(theta_left=2, theta_right=2, jobs=2, prep=prep)
            session = EnumerationSession(GRAPHS[1], 1, config)
            list(session.stream())
            engine = session.engine
            merged = replace(engine.stats)
            root = engine._initial_solution()
            shards = shard_plan(engine, root)
            assert merged.num_shards == len(shards) >= 2
            serial_config = replace(config, jobs=1, time_limit=None, max_results=None)
            coordinator = ReverseSearchEngine(engine.graph, 1, serial_config)
            assert not coordinator._passes_size_filter(root)
            folded = {name: getattr(coordinator.stats, name) for name in names}
            worker = ReverseSearchEngine(engine.graph, 1, serial_config)
            best = 0
            for shard in shards:
                list(worker.run_shard(root, (shard.side, shard.vertex), shard.exclusion))
                for name in names:
                    folded[name] += getattr(worker.stats, name)
                best = max(best, worker.stats.best_size)
            assert {name: getattr(merged, name) for name in names} == folded, prep
            assert folded["num_pruned_size_filter"] > 0
            assert merged.best_size == best > 0

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
