"""Unit tests for the k-biplex primitives (Definitions 2.1-2.3 and extensions)."""

import pytest
from graph_samples import ROUTES, via

from repro.core import (
    Biplex,
    ITraversal,
    arbitrary_initial_solution,
    can_add_left,
    can_add_right,
    extend_to_maximal,
    initial_solution_left_anchored,
    initial_solution_right_anchored,
    is_k_biplex,
    is_maximal_k_biplex,
)
from repro.graph import BipartiteGraph, paper_example_graph


class TestBiplexValue:
    def test_of_and_size(self):
        biplex = Biplex.of([2, 1], [3])
        assert biplex.left == frozenset({1, 2})
        assert biplex.right == frozenset({3})
        assert biplex.size == 3

    def test_hashable_and_equal(self):
        assert Biplex.of([1], [2]) == Biplex.of({1}, {2})
        assert len({Biplex.of([1], [2]), Biplex.of([1], [2])}) == 1

    def test_contains(self):
        big = Biplex.of([1, 2], [3, 4])
        small = Biplex.of([1], [3])
        assert big.contains(small)
        assert not small.contains(big)
        assert big.contains(big)

    def test_key_is_sorted(self):
        assert Biplex.of([3, 1], [2]).key() == ((1, 3), (2,))

    def test_vertices(self):
        left, right = Biplex.of([1], [2, 3]).vertices()
        assert left == frozenset({1})
        assert right == frozenset({2, 3})

    def test_sorting_does_not_depend_on_input_order(self, example_graph):
        # The order is total: subset order on frozenset fields was not, so
        # sorted() depended on the order the solutions arrived in.
        solutions = ITraversal(example_graph, 1).enumerate()
        assert len(solutions) == 13
        assert sorted(solutions) == sorted(reversed(solutions))


class TestIsKBiplex:
    def test_empty_sides_are_biplexes(self, example_graph):
        assert is_k_biplex(example_graph, [], [], 1)
        assert is_k_biplex(example_graph, [], example_graph.right_vertices(), 1)
        assert is_k_biplex(example_graph, example_graph.left_vertices(), [], 1)

    def test_complete_graph_is_biplex_for_any_k(self, complete_graph):
        assert is_k_biplex(complete_graph, [0, 1, 2], [0, 1, 2], 1)

    def test_paper_example_solutions(self, example_graph):
        # H0, H1 and H'' from the worked examples are 1-biplexes.
        assert is_k_biplex(example_graph, [4], [0, 1, 2, 3, 4], 1)
        assert is_k_biplex(example_graph, [0, 1, 4], [0, 1, 2, 3], 1)
        assert is_k_biplex(example_graph, [1, 2, 4], [0, 1, 2], 1)

    def test_violating_subgraph(self, example_graph):
        # v3 misses u0, u1 and u2: three misses exceed k = 1 and k = 2.
        assert not is_k_biplex(example_graph, [3], [0, 1, 2, 3, 4], 1)
        assert not is_k_biplex(example_graph, [3], [0, 1, 2, 3, 4], 2)
        assert is_k_biplex(example_graph, [3], [0, 1, 2, 3, 4], 3)

    def test_right_side_violation(self):
        graph = BipartiteGraph(3, 1, edges=[(0, 0)])
        # u0 misses v1 and v2.
        assert not is_k_biplex(graph, [0, 1, 2], [0], 1)
        assert is_k_biplex(graph, [0, 1, 2], [0], 2)


class TestCanAdd:
    def test_can_add_left_respects_own_budget(self, example_graph):
        # v3 misses u0, u1, u2 so it cannot join ({v4}, R) for k = 1.
        assert not can_add_left(example_graph, {4}, set(range(5)), 3, 1)
        assert can_add_left(example_graph, {4}, set(range(5)), 3, 3)

    def test_can_add_left_respects_partner_budget(self, example_graph):
        # Adding v0 to ({v1, v2, v4}, {u0, u1, u2}) would overload u2
        # (u2 already misses v2 and v0 also misses u2).
        assert not can_add_left(example_graph, {1, 2, 4}, {0, 1, 2}, 0, 1)

    def test_can_add_already_member(self, example_graph):
        assert not can_add_left(example_graph, {4}, {0, 1}, 4, 1)
        assert not can_add_right(example_graph, {4}, {0, 1}, 0, 1)

    def test_can_add_right(self, example_graph):
        # u3 can join ({v1, v4}, {u0, u1, u2}) for k = 1: v1 and v4 are adjacent to u3.
        assert can_add_right(example_graph, {1, 4}, {0, 1, 2}, 3, 1)
        # u4 cannot: v1 misses u0 already and also misses u4.
        assert not can_add_right(example_graph, {1, 4}, {0, 1, 2}, 4, 1)

    def test_can_add_mirrors_is_k_biplex(self, example_graph):
        left, right = {0, 4}, {0, 1, 3}
        for v in example_graph.left_vertices():
            if v in left:
                continue
            expected = is_k_biplex(example_graph, left | {v}, right, 1)
            assert can_add_left(example_graph, left, right, v, 1) == expected
        for u in example_graph.right_vertices():
            if u in right:
                continue
            expected = is_k_biplex(example_graph, left, right | {u}, 1)
            assert can_add_right(example_graph, left, right, u, 1) == expected


class TestMaximality:
    def test_paper_solutions_are_maximal(self, example_graph):
        assert is_maximal_k_biplex(example_graph, [4], [0, 1, 2, 3, 4], 1)
        assert is_maximal_k_biplex(example_graph, [0, 1, 4], [0, 1, 2, 3], 1)
        assert is_maximal_k_biplex(example_graph, [1, 2, 4], [0, 1, 2], 1)

    def test_subgraph_of_maximal_is_not_maximal(self, example_graph):
        assert not is_maximal_k_biplex(example_graph, [4], [0, 1, 2], 1)
        assert not is_maximal_k_biplex(example_graph, [], [0, 1, 2, 3, 4], 1)

    def test_non_biplex_is_not_maximal(self, example_graph):
        assert not is_maximal_k_biplex(example_graph, [0, 3], [0, 1, 2, 3, 4], 1)

    def test_candidate_pools_restrict_the_check(self, example_graph):
        # ({v4}, {u0, u1, u2}) is not maximal in G, but is maximal when only
        # u0..u2 and v4 are candidates.
        assert not is_maximal_k_biplex(example_graph, [4], [0, 1, 2], 1)
        assert is_maximal_k_biplex(
            example_graph, [4], [0, 1, 2], 1, candidate_left=[4], candidate_right=[0, 1, 2]
        )


class TestExtension:
    def test_extension_reaches_maximal(self, example_graph):
        result = extend_to_maximal(example_graph, [4], [0, 1, 2, 3, 4], 1)
        assert is_maximal_k_biplex(example_graph, result.left, result.right, 1)

    def test_extension_is_superset(self, example_graph):
        result = extend_to_maximal(example_graph, [1], [0, 1, 2], 1)
        assert {1} <= set(result.left)
        assert {0, 1, 2} <= set(result.right)

    def test_extension_restricted_to_left_candidates(self, example_graph):
        result = extend_to_maximal(example_graph, [1, 4], [0, 1, 2], 1, candidate_right=())
        # No right vertex may be added even though u3 would fit.
        assert set(result.right) == {0, 1, 2}
        assert is_maximal_k_biplex(
            example_graph, result.left, result.right, 1, candidate_right=()
        )

    def test_extension_deterministic(self, example_graph):
        first = extend_to_maximal(example_graph, [], [], 1)
        second = extend_to_maximal(example_graph, [], [], 1)
        assert first == second

    def test_extension_example_from_paper(self, example_graph):
        # Example 3.1: the local solution ({v0, v4}, {u0..u3}) extends to H1
        # by including v1.
        result = extend_to_maximal(example_graph, [0, 4], [0, 1, 2, 3], 1)
        assert result == Biplex.of([0, 1, 4], [0, 1, 2, 3])

    @pytest.mark.parametrize("route", ROUTES)
    def test_duplicate_candidates_are_tried_once(self, route):
        # Regression: a vertex listed twice in a candidate pool had its
        # misses counted twice, which could leave the result non-maximal
        # within the pool (7x7, 22 edges, seed 0, k=2: L={4}, not {4, 6}).
        from repro.graph import erdos_renyi_bipartite

        for seed in range(4):
            for num_edges in (14, 22, 30):
                graph = via(
                    route, erdos_renyi_bipartite(7, 7, num_edges=num_edges, seed=seed)
                )
                for k in (1, 2):
                    twice = extend_to_maximal(
                        graph, (), range(5), k,
                        candidate_left=list(range(7)) * 2,
                        candidate_right=[5, 6, 6, 5],
                    )
                    once = extend_to_maximal(
                        graph, (), range(5), k,
                        candidate_left=range(7),
                        candidate_right=[5, 6],
                    )
                    assert twice == once
                    assert is_maximal_k_biplex(
                        graph, twice.left, twice.right, k,
                        candidate_left=range(7), candidate_right=[5, 6],
                    )


class TestInitialSolutions:
    def test_left_anchored_initial_solution(self, example_graph):
        h0 = initial_solution_left_anchored(example_graph, 1)
        assert set(h0.right) == set(example_graph.right_vertices())
        assert set(h0.left) == {4}
        assert is_maximal_k_biplex(example_graph, h0.left, h0.right, 1)

    def test_left_anchored_is_maximal_for_all_k(self, example_graph):
        for k in (1, 2, 3):
            h0 = initial_solution_left_anchored(example_graph, k)
            assert is_maximal_k_biplex(example_graph, h0.left, h0.right, k)

    def test_right_anchored_initial_solution(self, example_graph):
        h0 = initial_solution_right_anchored(example_graph, 1)
        assert set(h0.left) == set(example_graph.left_vertices())
        assert is_maximal_k_biplex(example_graph, h0.left, h0.right, 1)

    def test_arbitrary_initial_solution_is_maximal(self, example_graph):
        h0 = arbitrary_initial_solution(example_graph, 1)
        assert is_maximal_k_biplex(example_graph, h0.left, h0.right, 1)

    def test_initial_solution_on_empty_graph(self, empty_graph):
        h0 = initial_solution_left_anchored(empty_graph, 1)
        # With no edges, each left vertex misses every right vertex; only
        # graphs with |R| <= k admit left vertices.
        assert set(h0.right) == set(empty_graph.right_vertices())
        assert set(h0.left) == set()

