"""Property-based tests (hypothesis) for the core invariants of the library.

These are the repository's strongest correctness guarantees: on arbitrary
small random bipartite graphs, every enumeration algorithm must agree with
the exhaustive brute force, and the structural lemmas the paper relies on
(hereditary property, invariants of the designated initial solution, the
sparsification orderings) must hold.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graph_samples import ROUTES, via

from repro.baselines import enumerate_mbps_bruteforce, enumerate_mbps_imb
from repro.core import (
    Biplex,
    BTraversal,
    ITraversal,
    extend_to_maximal,
    initial_solution_left_anchored,
    is_k_biplex,
    is_maximal_k_biplex,
)
from repro.core.enum_almost_sat import (
    EnumAlmostSatConfig,
    enum_local_solutions,
    enum_local_solutions_naive,
)
from repro.graph import BipartiteGraph
from repro.graph.cores import Peel, alpha_beta_core

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def bipartite_graphs(draw, max_left=5, max_right=5):
    """Random small bipartite graphs."""
    n_left = draw(st.integers(min_value=1, max_value=max_left))
    n_right = draw(st.integers(min_value=1, max_value=max_right))
    possible = [(v, u) for v in range(n_left) for u in range(n_right)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=0, max_size=len(possible), unique=True)
    )
    return BipartiteGraph(n_left, n_right, edges=edges)


#: Deliberately asymmetric side sizes: the butterfly supports and the
#: per-side core constraints only show their bugs off the diagonal.
asymmetric_graphs = bipartite_graphs(max_left=7, max_right=3)


def _bruteforce_butterflies(graph):
    """Oracle: count 2 × 2 bicliques by enumerating left pairs."""
    from itertools import combinations

    total = 0
    for v1, v2 in combinations(range(graph.n_left), 2):
        common = len(
            set(graph.neighbors_of_left(v1)) & set(graph.neighbors_of_left(v2))
        )
        total += common * (common - 1) // 2
    return total


def _bruteforce_edge_supports(graph):
    """Oracle: per-edge butterfly membership counted pair-by-pair."""
    support = {}
    for v, u in graph.edges():
        count = 0
        for v_prime in graph.left_vertices():
            if v_prime == v or not graph.has_edge(v_prime, u):
                continue
            for u_prime in graph.right_vertices():
                if u_prime == u:
                    continue
                if graph.has_edge(v, u_prime) and graph.has_edge(v_prime, u_prime):
                    count += 1
        support[(v, u)] = count
    return support


def _bruteforce_alpha_beta_core(graph, alpha, beta):
    """Oracle: recompute every degree each round, remove all violators at once."""
    left = set(graph.left_vertices())
    right = set(graph.right_vertices())
    while True:
        bad_left = {v for v in left if len(set(graph.neighbors_of_left(v)) & right) < alpha}
        bad_right = {u for u in right if len(set(graph.neighbors_of_right(u)) & left) < beta}
        if not bad_left and not bad_right:
            return left, right
        left -= bad_left
        right -= bad_right


ks = st.integers(min_value=1, max_value=2)


class TestCrossAlgorithmEquivalence:
    @SETTINGS
    @given(graph=bipartite_graphs(), k=ks)
    def test_itraversal_matches_bruteforce(self, graph, k):
        assert set(ITraversal(graph, k).enumerate()) == set(
            enumerate_mbps_bruteforce(graph, k)
        )

    @SETTINGS
    @given(graph=bipartite_graphs(), k=ks)
    def test_btraversal_matches_bruteforce(self, graph, k):
        assert set(BTraversal(graph, k).enumerate()) == set(
            enumerate_mbps_bruteforce(graph, k)
        )

    @SETTINGS
    @given(graph=bipartite_graphs(), k=ks)
    def test_imb_matches_bruteforce(self, graph, k):
        assert set(enumerate_mbps_imb(graph, k)) == set(enumerate_mbps_bruteforce(graph, k))

    @SETTINGS
    @given(graph=bipartite_graphs(max_left=4, max_right=4), k=ks)
    def test_variants_and_anchors_agree(self, graph, k):
        reference = set(ITraversal(graph, k).enumerate())
        assert set(ITraversal(graph, k, variant="no-exclusion").enumerate()) == reference
        assert set(ITraversal(graph, k, variant="left-anchored-only").enumerate()) == reference
        swapped = ITraversal(graph.swap_sides(), k).enumerate()
        assert {Biplex(s.right_mask, s.left_mask) for s in swapped} == reference

    @SETTINGS
    @given(graph=bipartite_graphs(max_left=4, max_right=4), k=ks)
    def test_enumerators_backend_identical(self, graph, k):
        """Core enumerators and baselines agree with the set-query brute force
        on the graph reached by every construction route."""
        from repro.baselines import enumerate_mbps_inflation

        reference = set(enumerate_mbps_bruteforce(graph, k))
        for route in ROUTES:
            routed = via(route, graph)
            assert set(ITraversal(routed, k).enumerate()) == reference
            assert set(BTraversal(routed, k).enumerate()) == reference
            assert set(enumerate_mbps_imb(routed, k)) == reference
            assert set(enumerate_mbps_inflation(routed, k)) == reference


class TestStructuralInvariants:
    @SETTINGS
    @given(graph=bipartite_graphs(), k=ks)
    def test_every_solution_is_a_maximal_k_biplex(self, graph, k):
        for solution in ITraversal(graph, k).enumerate():
            assert is_k_biplex(graph, solution.left, solution.right, k)
            assert is_maximal_k_biplex(graph, solution.left, solution.right, k)

    @SETTINGS
    @given(graph=bipartite_graphs(), k=ks, data=st.data())
    def test_hereditary_property(self, graph, k, data):
        """Lemma 2.2: every subgraph of a k-biplex is a k-biplex."""
        solutions = ITraversal(graph, k).enumerate()
        if not solutions:
            return
        solution = data.draw(st.sampled_from(solutions))
        left_subset = data.draw(st.sets(st.sampled_from(sorted(solution.left) or [0])))
        right_subset = data.draw(st.sets(st.sampled_from(sorted(solution.right) or [0])))
        left_subset &= solution.left
        right_subset &= solution.right
        assert is_k_biplex(graph, left_subset, right_subset, k)

    @SETTINGS
    @given(graph=bipartite_graphs(), k=ks)
    def test_initial_solution_invariants(self, graph, k):
        """H0 = (L0, R) covers the whole right side and is maximal (Section 3.2)."""
        h0 = initial_solution_left_anchored(graph, k)
        assert set(h0.right) == set(graph.right_vertices())
        assert is_maximal_k_biplex(graph, h0.left, h0.right, k)

    @SETTINGS
    @given(graph=bipartite_graphs(), k=ks, data=st.data())
    def test_extension_returns_maximal_superset(self, graph, k, data):
        left = data.draw(st.sets(st.integers(min_value=0, max_value=graph.n_left - 1)))
        right = data.draw(st.sets(st.integers(min_value=0, max_value=graph.n_right - 1)))
        if not is_k_biplex(graph, left, right, k):
            return
        extended = extend_to_maximal(graph, left, right, k)
        assert left <= set(extended.left)
        assert right <= set(extended.right)
        assert is_maximal_k_biplex(graph, extended.left, extended.right, k)

    @SETTINGS
    @given(graph=bipartite_graphs(), k=ks)
    def test_solution_count_monotone_in_structure(self, graph, k):
        """No two distinct solutions may contain one another."""
        solutions = ITraversal(graph, k).enumerate()
        for first in solutions:
            for second in solutions:
                if first != second:
                    assert not first.contains(second)


class TestEnumAlmostSatProperties:
    @SETTINGS
    @given(graph=bipartite_graphs(max_left=4, max_right=4), k=ks, data=st.data())
    def test_refined_enumeration_equals_naive(self, graph, k, data):
        solutions = ITraversal(graph, k).enumerate()
        if not solutions:
            return
        solution = data.draw(st.sampled_from(solutions))
        outside = [v for v in graph.left_vertices() if v not in solution.left]
        if not outside:
            return
        vertex = data.draw(st.sampled_from(outside))
        naive = set(
            enum_local_solutions_naive(graph, set(solution.left), set(solution.right), vertex, k)
        )
        for right_level in (1, 2):
            for left_level in (1, 2):
                config = EnumAlmostSatConfig(right_level, left_level)
                fast = set(
                    enum_local_solutions(
                        graph, set(solution.left), set(solution.right), vertex, k, config
                    )
                )
                assert fast == naive


class TestCoreProperties:
    @SETTINGS
    @given(
        graph=bipartite_graphs(max_left=6, max_right=6),
        alpha=st.integers(min_value=0, max_value=3),
        beta=st.integers(min_value=0, max_value=3),
    )
    def test_core_degree_constraints(self, graph, alpha, beta):
        left, right = alpha_beta_core(graph, alpha, beta)
        for v in left:
            assert len(set(graph.neighbors_of_left(v)) & right) >= alpha
        for u in right:
            assert len(set(graph.neighbors_of_right(u)) & left) >= beta

    @SETTINGS
    @given(
        graph=bipartite_graphs(max_left=6, max_right=6),
        alpha=st.integers(min_value=1, max_value=3),
        beta=st.integers(min_value=1, max_value=3),
    )
    def test_core_is_maximal(self, graph, alpha, beta):
        """No peeled vertex can be added back while keeping the degree bounds."""
        left, right = alpha_beta_core(graph, alpha, beta)
        for v in graph.left_vertices():
            if v in left:
                continue
            # v was peeled: within the core it has fewer than alpha neighbours.
            assert len(set(graph.neighbors_of_left(v)) & right) < alpha

    @SETTINGS
    @given(graph=asymmetric_graphs)
    def test_butterfly_count_matches_bruteforce_on_both_backends(self, graph):
        # Each butterfly holds four edges.
        expected = 4 * _bruteforce_butterflies(graph)
        for route in ROUTES:
            assert sum(Peel(via(route, graph)).supports().values()) == expected

    @SETTINGS
    @given(graph=asymmetric_graphs)
    def test_edge_supports_match_bruteforce_on_both_backends(self, graph):
        expected = _bruteforce_edge_supports(graph)
        for route in ROUTES:
            assert Peel(via(route, graph)).supports() == expected

    @SETTINGS
    @given(graph=asymmetric_graphs, k=st.integers(min_value=1, max_value=3))
    def test_k_bitruss_backends_agree_and_supports_hold(self, graph, k):
        expected = graph.copy()
        while True:
            supports = _bruteforce_edge_supports(expected)
            weak = [edge for edge, count in supports.items() if count < k]
            if not weak:
                break
            for v, u in weak:
                expected.remove_edge(v, u)
        for route in ROUTES:
            peel = Peel(via(route, graph))
            peel.bitruss(k)
            truss = peel.compact()[0]
            assert sorted(truss.edges()) == sorted(expected.edges())
            assert all(count >= k for count in Peel(truss).supports().values())

    @SETTINGS
    @given(
        graph=asymmetric_graphs,
        alpha=st.integers(min_value=0, max_value=3),
        beta=st.integers(min_value=0, max_value=3),
    )
    def test_core_matches_bruteforce_on_both_backends(self, graph, alpha, beta):
        expected = _bruteforce_alpha_beta_core(graph, alpha, beta)
        for route in ROUTES:
            assert alpha_beta_core(via(route, graph), alpha, beta) == expected

    @SETTINGS
    @given(graph=bipartite_graphs(max_left=5, max_right=5), k=ks, theta=st.integers(2, 4))
    def test_large_mbp_enumeration_equals_filtering(self, graph, k, theta):
        expected = {
            s
            for s in enumerate_mbps_bruteforce(graph, k)
            if len(s.left) >= theta and len(s.right) >= theta
        }
        algorithm = ITraversal(graph, k, theta_left=theta, theta_right=theta)
        assert set(algorithm.enumerate()) == expected
