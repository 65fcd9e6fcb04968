"""Unit tests for the BipartiteGraph data structure."""

import pytest

from repro.graph import BipartiteGraph, paper_example_graph


class TestConstruction:
    def test_empty_graph_has_no_edges(self):
        graph = BipartiteGraph(3, 4)
        assert graph.num_edges == 0
        assert graph.n_left == 3
        assert graph.n_right == 4
        assert graph.num_vertices == 7

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            BipartiteGraph(-1, 3)
        with pytest.raises(ValueError):
            BipartiteGraph(3, -2)

    def test_edges_from_constructor(self):
        graph = BipartiteGraph(2, 2, edges=[(0, 0), (1, 1)])
        assert graph.num_edges == 2
        assert graph.has_edge(0, 0)
        assert graph.has_edge(1, 1)
        assert not graph.has_edge(0, 1)

    def test_duplicate_edges_counted_once(self):
        graph = BipartiteGraph(2, 2, edges=[(0, 0), (0, 0), (0, 0)])
        assert graph.num_edges == 1

    def test_duplicate_edges_do_not_skew_density(self):
        # Regression: duplicate insertions must be idempotent — _num_edges
        # (and therefore edge_density) may only count distinct edges.
        graph = BipartiteGraph(2, 3, edges=[(0, 0), (1, 1), (0, 0), (1, 1), (0, 0)])
        assert graph.num_edges == 2
        assert graph.edge_density == pytest.approx(2 / 5)
        for _ in range(3):
            assert graph.add_edge(0, 0) is False
        assert graph.num_edges == 2
        assert graph.edge_density == pytest.approx(2 / 5)
        assert graph.degree_of_left(0) == 1
        assert graph.degree_of_right(0) == 1

    def test_zero_vertex_graph(self):
        graph = BipartiteGraph(0, 0)
        assert graph.num_vertices == 0
        assert graph.edge_density == 0.0


class TestMutation:
    def test_add_edge_returns_true_only_when_new(self):
        graph = BipartiteGraph(2, 2)
        assert graph.add_edge(0, 1) is True
        assert graph.add_edge(0, 1) is False
        assert graph.num_edges == 1

    def test_add_edge_out_of_range(self):
        graph = BipartiteGraph(2, 2)
        with pytest.raises(IndexError):
            graph.add_edge(2, 0)
        with pytest.raises(IndexError):
            graph.add_edge(0, 5)
        with pytest.raises(IndexError):
            graph.add_edge(-1, 0)

    def test_remove_edge(self):
        graph = BipartiteGraph(2, 2, edges=[(0, 0)])
        assert graph.remove_edge(0, 0) is True
        assert graph.remove_edge(0, 0) is False
        assert graph.num_edges == 0
        assert not graph.has_edge(0, 0)


class TestQueries:
    def test_neighbors_and_degrees(self, tiny_graph):
        assert sorted(tiny_graph.neighbors_of_left(0)) == [0, 1]
        assert sorted(tiny_graph.neighbors_of_right(1)) == [0, 1]
        assert tiny_graph.degree_of_left(1) == 2
        assert tiny_graph.degree_of_right(2) == 1

    def test_gamma_and_non_gamma(self, tiny_graph):
        assert tiny_graph.gamma_left(0, {0, 1, 2}) == {0, 1}
        assert tiny_graph.gamma_right(1, {0, 1}) == {0, 1}

    def test_missing_counts(self, tiny_graph):
        assert tiny_graph.missing_left(0, {0, 1, 2}) == 1
        assert tiny_graph.missing_left(0, [0, 1]) == 0
        assert tiny_graph.missing_right(2, {0, 1}) == 1
        assert tiny_graph.missing_right(2, frozenset({1})) == 0

    def test_missing_counts_set_and_iterable_agree(self, example_graph):
        for v in example_graph.left_vertices():
            subset = set(range(3))
            assert example_graph.missing_left(v, subset) == example_graph.missing_left(
                v, list(subset)
            )

    def test_edge_density(self):
        graph = BipartiteGraph(2, 3, edges=[(0, 0), (1, 1)])
        assert graph.edge_density == pytest.approx(2 / 5)


class TestDerivedGraphs:
    def test_induced_subgraph(self, example_graph):
        subgraph = example_graph.induced_subgraph([0, 4], [0, 1, 2])
        assert subgraph.n_left == 2
        assert subgraph.n_right == 3
        # v0 is adjacent to u0, u1 (not u2); v4 adjacent to all.
        assert subgraph.num_edges == 5

    def test_induced_subgraph_with_mapping(self, example_graph):
        subgraph, left_map, right_map = example_graph.induced_subgraph_with_mapping(
            [4, 0], [2, 0]
        )
        assert left_map == [0, 4]
        assert right_map == [0, 2]
        assert subgraph.has_edge(left_map.index(4), right_map.index(2))

    def test_edges_iteration_roundtrip(self, example_graph):
        edges = set(example_graph.edges())
        rebuilt = BipartiteGraph(example_graph.n_left, example_graph.n_right, edges=edges)
        assert rebuilt == example_graph

    def test_copy_is_independent(self, tiny_graph):
        clone = tiny_graph.copy()
        clone.add_edge(0, 2)
        assert not tiny_graph.has_edge(0, 2)
        assert clone != tiny_graph

    def test_swap_sides(self, tiny_graph):
        swapped = tiny_graph.swap_sides()
        assert swapped.n_left == tiny_graph.n_right
        assert swapped.n_right == tiny_graph.n_left
        for left_vertex, right_vertex in tiny_graph.edges():
            assert swapped.has_edge(right_vertex, left_vertex)
        # An independent copy at epoch 0, whatever the source's epoch.
        source = tiny_graph.copy()
        source.add_edge(0, 2)
        swapped = source.swap_sides()
        assert swapped.epoch == 0 and swapped.num_edges == source.num_edges
        swapped.remove_edge(2, 0)
        assert source.adj_left_mask(0) >> 2 & 1 and source.adj_right_mask(2) & 1

    def test_equality(self):
        first = BipartiteGraph(2, 2, edges=[(0, 0)])
        second = BipartiteGraph(2, 2, edges=[(0, 0)])
        third = BipartiteGraph(2, 2, edges=[(0, 1)])
        assert first == second
        assert first != third
        assert first != "not a graph"


class TestPaperExample:
    def test_shape(self, example_graph):
        assert example_graph.n_left == 5
        assert example_graph.n_right == 5
        assert example_graph.num_edges == 16

    def test_v4_connects_everything(self, example_graph):
        assert example_graph.degree_of_left(4) == 5

    def test_every_other_left_vertex_misses_at_least_two(self, example_graph):
        # Required for H0 = ({v4}, R) to be a maximal 1-biplex (Section 3.2).
        all_right = set(example_graph.right_vertices())
        for v in range(4):
            assert example_graph.missing_left(v, all_right) >= 2

