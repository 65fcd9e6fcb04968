"""End-to-end integration tests crossing module boundaries."""

import pytest

from repro import (
    BipartiteGraph,
    ITraversal,
    enumerate_large_mbps,
    enumerate_mbps,
    paper_example_graph,
    planted_biplex_graph,
    read_edge_list,
    write_edge_list,
)
from repro.analysis import load_dataset
from repro.baselines import enumerate_mbps_bruteforce
from repro.core import check_all_solutions, same_solutions
from repro.core.verify import canonical, missing_and_extra, summarize_solutions
from repro.graph.cores import theta_core_for_large_mbps


class TestPublicAPIRoundtrip:
    def test_quickstart_flow(self):
        """The README quickstart: build a graph, enumerate, inspect stats."""
        graph = BipartiteGraph(3, 3, edges=[(0, 0), (0, 1), (1, 1), (2, 2), (1, 2)])
        solutions, stats = enumerate_mbps(graph, k=1)
        check_all_solutions(graph, solutions, 1)
        assert stats.num_reported == len(solutions)
        assert same_solutions(solutions, enumerate_mbps_bruteforce(graph, 1))

    def test_file_roundtrip_then_enumerate(self, tmp_path):
        graph = paper_example_graph()
        path = tmp_path / "example.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert same_solutions(
            ITraversal(loaded, 1).enumerate(), ITraversal(graph, 1).enumerate()
        )

    def test_summary_and_diff_helpers(self):
        graph = paper_example_graph()
        solutions = ITraversal(graph, 1).enumerate()
        summary = summarize_solutions(solutions)
        assert summary["count"] == len(solutions)
        assert summary["max_total"] >= summary["max_left"]
        missing, extra = missing_and_extra(solutions, solutions[:-1])
        assert len(missing) == 1 and not extra
        assert canonical(solutions) == canonical(list(reversed(solutions)))
        assert summarize_solutions([]) == {
            "count": 0,
            "max_left": 0,
            "max_right": 0,
            "max_total": 0,
        }


class TestPlantedStructureRecovery:
    def test_planted_biplexes_recovered_through_the_full_stack(self):
        """Generator -> core preprocessing -> large-MBP enumeration."""
        graph = planted_biplex_graph(
            24, 24, block_left=6, block_right=6, k=1, background_edges=30, num_blocks=2, seed=5
        )
        solutions, stats = enumerate_large_mbps(graph, k=1, theta=5)
        assert solutions, "the planted blocks must yield large MBPs"
        assert not stats.truncated
        # Each reported structure must intersect a planted block heavily: the
        # blocks occupy vertex ranges [0, 6) and [6, 12) on both sides.
        for solution in solutions:
            block_ids = {0, 1} & {min(v // 6, 1) for v in solution.left}
            assert block_ids, "solutions should align with planted blocks"

    def test_core_preprocessing_shrinks_sparse_background(self):
        graph = planted_biplex_graph(
            30, 30, block_left=6, block_right=6, k=1, background_edges=40, num_blocks=1, seed=8
        )
        core, left_map, right_map = theta_core_for_large_mbps(graph, k=1, theta=5)
        assert core.num_vertices < graph.num_vertices
        with_core = set(enumerate_large_mbps(graph, 1, theta=5, use_core_preprocessing=True)[0])
        without_core = set(
            enumerate_large_mbps(graph, 1, theta=5, use_core_preprocessing=False)[0]
        )
        assert with_core == without_core


class TestDatasetPipelines:
    @pytest.mark.parametrize("name", ["divorce", "cfat"])
    def test_registry_dataset_enumeration(self, name):
        graph = load_dataset(name)
        solutions, stats = enumerate_mbps(graph, 1, max_results=25)
        assert len(solutions) == 25
        check_all_solutions(graph, solutions, 1)

    def test_streaming_interface_consistent_with_batch(self):
        graph = load_dataset("divorce")
        # jobs=1: a capped parallel run keeps the first solutions to arrive,
        # a scheduling-dependent subset (TraversalConfig.jobs).
        algorithm = ITraversal(graph, 1, max_results=30, jobs=1)
        streamed = list(algorithm.run())
        batch = ITraversal(graph, 1, max_results=30, jobs=1).enumerate()
        assert streamed == batch
