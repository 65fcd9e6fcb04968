"""Tests for the solution-graph construction (Figure 3/11) and delay instrumentation."""

import time
from collections import Counter

import pytest

from repro.core import (
    BTraversal,
    DelayInstrumentedIterator,
    ITraversal,
    SolutionGraph,
    build_solution_graph,
    count_links,
    measure_delay,
)
from repro.core.biplex import Biplex
from repro.graph import erdos_renyi_bipartite, paper_example_graph


@pytest.fixture(scope="module")
def solution_graphs():
    graph = paper_example_graph()
    return {
        variant: build_solution_graph(graph, 1, variant=variant)
        for variant in ("btraversal", "left-anchored", "right-shrinking", "itraversal")
    }


class TestSolutionGraphConstruction:
    def test_unknown_variant_rejected(self, example_graph):
        with pytest.raises(ValueError):
            build_solution_graph(example_graph, 1, variant="mystery")

    def test_all_variants_share_the_node_set_size(self, solution_graphs, example_graph):
        expected = len(ITraversal(example_graph, 1).enumerate())
        for variant, solution_graph in solution_graphs.items():
            assert solution_graph.num_nodes == expected, variant

    def test_sparsification_ordering(self, solution_graphs):
        """Dropping links can only make the graphs sparser: G ≥ G_L ≥ G_R (Figure 3)."""
        assert (
            solution_graphs["btraversal"].num_links
            >= solution_graphs["left-anchored"].num_links
            >= solution_graphs["right-shrinking"].num_links
        )
        assert (
            solution_graphs["right-shrinking"].num_links
            >= solution_graphs["itraversal"].num_links
        )

    def test_btraversal_graph_strongly_connected(self, solution_graphs):
        assert solution_graphs["btraversal"].is_strongly_connected()

    def test_sparsified_graphs_reach_all_solutions_from_h0(
        self, solution_graphs, example_graph
    ):
        h0 = ITraversal(example_graph, 1).initial_solution()
        for variant in ("left-anchored", "right-shrinking"):
            solution_graph = solution_graphs[variant]
            reachable = solution_graph.reachable_from(h0)
            assert len(reachable) == solution_graph.num_nodes, variant

    def test_left_anchored_graph_not_strongly_connected(self, solution_graphs):
        """The paper remarks G_L loses strong connectivity (Section 3.3 Remarks)."""
        assert not solution_graphs["left-anchored"].is_strongly_connected()

    def test_right_shrinking_links_shrink_right_side(self, solution_graphs):
        for source, target in solution_graphs["right-shrinking"].links:
            assert target.right <= source.right

    def test_left_anchored_links_only_from_left_insertions(self, solution_graphs):
        # every link's target contains at least one left vertex outside the
        # source (the anchor vertex), unless the target equals the source.
        for source, target in solution_graphs["left-anchored"].links:
            assert target != source

    def test_count_links_report(self, example_graph):
        counts = count_links(example_graph, 1)
        assert set(counts) == {"bTraversal", "iTraversal-ES-RS", "iTraversal-ES", "iTraversal"}
        assert counts["bTraversal"] >= counts["iTraversal-ES-RS"] >= counts["iTraversal-ES"]

    def test_out_degree_and_adjacency(self, solution_graphs):
        graph = solution_graphs["right-shrinking"]
        adjacency = graph.adjacency()
        total = sum(len(targets) for targets in adjacency.values())
        assert total == graph.num_links
        some_node = graph.nodes[0]
        assert graph.out_degree(some_node) == len(adjacency[some_node])


class TestTraversedSolutionGraph:
    """G_E holds the links a serial canonical-order iTraversal run generates."""

    @pytest.mark.parametrize(
        "graph, k",
        [pytest.param(paper_example_graph(), 1, id="example-k1")]
        + [
            pytest.param(
                erdos_renyi_bipartite(7, 8, num_edges=25, seed=seed), k, id=f"er-s{seed}-k{k}"
            )
            for seed in range(6)
            for k in (1, 2)
        ],
    )
    def test_real_links(self, graph, k):
        traversed = build_solution_graph(graph, k, variant="itraversal")
        shrinking = build_solution_graph(graph, k, variant="right-shrinking")
        run = ITraversal(graph, k, prep="off", jobs=1)
        run.enumerate()
        assert traversed.num_links == run.stats.num_links
        h0 = run.initial_solution()
        assert traversed.reachable_from(h0) == set(traversed.nodes)
        for source, target in traversed.links:
            assert target.right <= source.right
        assert not Counter(traversed.links) - Counter(shrinking.links)

    def test_no_self_loops_on_the_example(self, solution_graphs):
        links = solution_graphs["itraversal"].links
        assert links and all(source != target for source, target in links)


class TestSolutionGraphDataclass:
    def test_empty_graph_is_strongly_connected(self):
        assert SolutionGraph().is_strongly_connected()
        assert SolutionGraph().num_nodes == 0

    def test_reachability_on_tiny_graph(self):
        a, b, c = Biplex.of([1], []), Biplex.of([2], []), Biplex.of([3], [])
        graph = SolutionGraph(nodes=[a, b, c], links=[(a, b), (b, c)])
        assert graph.reachable_from(a) == {a, b, c}
        assert graph.reachable_from(c) == {c}
        assert not graph.is_strongly_connected()


class TestDelay:
    def test_measure_delay_counts_solutions(self, example_graph):
        solutions, record = measure_delay(lambda: ITraversal(example_graph, 1).run())
        assert record.num_solutions == len(solutions)
        assert record.max_delay >= 0
        assert record.total_time >= sum(record.delays) * 0.5

    def test_termination_gap_recorded_separately(self, example_graph):
        solutions, record = measure_delay(lambda: ITraversal(example_graph, 1).run())
        assert len(record.delays) == len(solutions)
        assert record.termination_gap is not None
        assert record.termination_gap >= 0

    def test_mean_delay_at_most_max_delay(self, example_graph):
        _, record = measure_delay(lambda: ITraversal(example_graph, 1).run())
        assert record.mean_delay <= record.max_delay + 1e-12

    def test_both_recorders_implement_the_same_definition(self):
        """measure_delay and DelayInstrumentedIterator must fill DelayRecord
        identically: one delay per solution, the paper's trailing
        last-output-to-termination gap in ``termination_gap``, and a
        ``mean_delay`` over solution gaps only."""

        def make_generator():
            def generator():
                yield "a"
                time.sleep(0.015)
                yield "b"
                time.sleep(0.03)  # trailing work after the last solution

            return generator()

        _, measured = measure_delay(make_generator)
        instrumented = DelayInstrumentedIterator(make_generator())
        list(instrumented)
        for record in (measured, instrumented.record):
            assert record.num_solutions == 2
            assert len(record.delays) == 2
            assert record.termination_gap is not None
            assert record.termination_gap >= 0.03
            # max_delay covers the trailing gap, mean_delay excludes it.
            assert record.max_delay >= record.termination_gap
            assert record.mean_delay <= max(record.delays)
            assert record.total_time >= sum(record.delays) + record.termination_gap - 1e-9

    def test_measure_delay_on_slow_iterator(self):
        def generator():
            yield 1
            time.sleep(0.02)
            yield 2

        _, record = measure_delay(generator)
        assert record.max_delay >= 0.02

    def test_instrumented_iterator(self, example_graph):
        iterator = DelayInstrumentedIterator(BTraversal(example_graph, 1).run())
        items = list(iterator)
        assert iterator.record.num_solutions == len(items)
        assert len(iterator.record.delays) == len(items)
        assert iterator.record.termination_gap is not None
        assert iterator.record.total_time > 0

    def test_instrumented_iterator_empty(self):
        iterator = DelayInstrumentedIterator(iter(()))
        assert list(iterator) == []
        assert iterator.record.num_solutions == 0
        assert iterator.record.delays == []
        assert iterator.record.max_delay >= 0

    def test_instrumented_iterator_early_stop_leaves_termination_unset(self, example_graph):
        iterator = DelayInstrumentedIterator(ITraversal(example_graph, 1).run())
        next(iterator)
        assert iterator.record.num_solutions == 1
        assert iterator.record.termination_gap is None

    def test_alternating_output_reduces_worst_gap_structure(self, example_graph):
        """The alternating order must not change the solution set (sanity)."""
        pre, _ = measure_delay(lambda: ITraversal(example_graph, 1, output_order="pre").run())
        alternate, _ = measure_delay(
            lambda: ITraversal(example_graph, 1, output_order="alternate").run()
        )
        assert set(pre) == set(alternate)
