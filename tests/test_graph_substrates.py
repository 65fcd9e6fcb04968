"""Tests for the general graph, inflation, cores, butterflies, generators and I/O."""

import pytest

from graph_samples import ROUTES, via

from repro.graph import (
    BipartiteGraph,
    Graph,
    alpha_beta_core,
    alpha_beta_core_subgraph,
    erdos_renyi_bipartite,
    inflate,
    inflated_edge_count,
    join_vertex_sets,
    planted_biplex_graph_with_blocks,
    power_law_bipartite,
    read_edge_list,
    read_konect,
    review_graph_with_camouflage,
    split_vertex_set,
    theta_core_for_large_mbps,
    write_edge_list,
    write_konect,
)
from repro.graph.butterfly import (
    _count_from_side,
    _pivot_from_left,
    bitruss_number,
    count_butterflies,
    edge_butterfly_counts,
    k_bitruss,
)
from repro.graph.generators import degree_histogram


class TestGeneralGraph:
    def test_basic_properties(self):
        graph = Graph(4, edges=[(0, 1), (1, 2), (2, 3)])
        assert graph.num_vertices == 4
        assert graph.num_edges == 3
        assert graph.degree(1) == 2
        assert graph.has_edge(2, 3) and not graph.has_edge(0, 3)

    def test_rejects_self_loops_and_bad_ids(self):
        graph = Graph(2)
        with pytest.raises(ValueError):
            graph.add_edge(0, 0)
        with pytest.raises(IndexError):
            graph.add_edge(0, 5)
        with pytest.raises(ValueError):
            Graph(-1)

    def test_edges_listed_once(self):
        graph = Graph(3, edges=[(0, 1), (1, 0), (1, 2)])
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]

    def test_kplex_predicate(self):
        triangle = Graph(3, edges=[(0, 1), (1, 2), (0, 2)])
        assert triangle.subgraph_is_kplex({0, 1, 2}, 1)
        path = Graph(3, edges=[(0, 1), (1, 2)])
        assert not path.subgraph_is_kplex({0, 1, 2}, 1)
        assert path.subgraph_is_kplex({0, 1, 2}, 2)

    def test_non_neighbors_within(self):
        graph = Graph(4, edges=[(0, 1)])
        assert graph.non_neighbors_within(0, {1, 2, 3}) == {2, 3}
        assert graph.missing_within(0, {1, 2, 3}) == 2


class TestInflation:
    def test_inflated_edge_count_formula(self, example_graph):
        assert inflated_edge_count(example_graph) == 5 * 4 // 2 + 5 * 4 // 2 + 16

    def test_inflate_structure(self, tiny_graph):
        inflated = inflate(tiny_graph)
        assert inflated.num_vertices == 5
        assert inflated.num_edges == inflated_edge_count(tiny_graph)
        # Same-side pairs are connected.
        assert inflated.has_edge(0, 1)          # two left vertices
        assert inflated.has_edge(2, 3)          # two right vertices (shifted by n_left)
        # Cross edges copied.
        assert inflated.has_edge(0, 2 + 0)      # v0 - u0

    def test_biplex_plex_correspondence(self, example_graph):
        inflated = inflate(example_graph)
        # H1 = ({v0, v1, v4}, {u0..u3}) is a 1-biplex <=> 2-plex in the inflation.
        vertex_set = join_vertex_sets(frozenset({0, 1, 4}), frozenset({0, 1, 2, 3}), 5)
        assert inflated.subgraph_is_kplex(vertex_set, 2)

    def test_split_and_join_roundtrip(self):
        left, right = frozenset({0, 2}), frozenset({1, 3})
        joined = join_vertex_sets(left, right, 5)
        assert split_vertex_set(joined, 5) == (left, right)


class TestCores:
    def test_complete_graph_core_is_everything(self, complete_graph):
        left, right = alpha_beta_core(complete_graph, 3, 3)
        assert left == {0, 1, 2}
        assert right == {0, 1, 2}

    def test_star_core_peels_leaves(self):
        graph = BipartiteGraph(3, 1, edges=[(0, 0), (1, 0), (2, 0)])
        left, right = alpha_beta_core(graph, 1, 2)
        assert right == {0}
        assert left == {0, 1, 2}
        left, right = alpha_beta_core(graph, 2, 1)
        assert left == set() and right == set()

    def test_core_subgraph_mapping(self, example_graph):
        subgraph, left_map, right_map = alpha_beta_core_subgraph(example_graph, 3, 3)
        for new_left, original_left in enumerate(left_map):
            assert subgraph.degree_of_left(new_left) == len(
                set(example_graph.neighbors_of_left(original_left)) & set(right_map)
            )

    def test_core_degrees_satisfied(self, example_graph):
        left, right = alpha_beta_core(example_graph, 3, 2)
        for v in left:
            assert len(set(example_graph.neighbors_of_left(v)) & right) >= 3
        for u in right:
            assert len(set(example_graph.neighbors_of_right(u)) & left) >= 2

    def test_theta_core_contains_every_large_mbp(self, example_graph):
        from repro.baselines import enumerate_mbps_bruteforce

        theta, k = 3, 1
        core, left_map, right_map = theta_core_for_large_mbps(example_graph, k, theta)
        core_left, core_right = set(left_map), set(right_map)
        for solution in enumerate_mbps_bruteforce(example_graph, k):
            if len(solution.left) >= theta and len(solution.right) >= theta:
                assert solution.left <= core_left
                assert solution.right <= core_right

    def test_zero_thresholds_keep_everything(self, example_graph):
        left, right = alpha_beta_core(example_graph, 0, 0)
        assert left == set(example_graph.left_vertices())
        assert right == set(example_graph.right_vertices())

    @staticmethod
    def _set_peel(graph, alpha, beta):
        """Oracle: drop violating vertices until none is left, by set degrees."""
        left = set(graph.left_vertices())
        right = set(graph.right_vertices())
        while True:
            bad_left = {v for v in left if len(graph.neighbors_of_left(v) & right) < alpha}
            bad_right = {u for u in right if len(graph.neighbors_of_right(u) & left) < beta}
            if not bad_left and not bad_right:
                return left, right
            left -= bad_left
            right -= bad_right

    @pytest.mark.parametrize("route", ROUTES)
    def test_core_backends_agree(self, route):
        """The mask peel against a set-degree round peel, per construction route."""
        for seed in range(3):
            graph = erdos_renyi_bipartite(9, 7, num_edges=25 + seed * 5, seed=seed)
            routed = via(route, graph)
            for alpha, beta in ((0, 0), (1, 1), (2, 3), (3, 2), (6, 6)):
                assert alpha_beta_core(routed, alpha, beta) == self._set_peel(
                    graph, alpha, beta
                )
        # Side sizes beyond 64 force multi-word masks.
        wide = erdos_renyi_bipartite(130, 70, num_edges=700, seed=23)
        routed = via(route, wide)
        for bound in (3, 5, 8):
            assert alpha_beta_core(routed, bound, bound) == self._set_peel(wide, bound, bound)


class TestButterflies:
    def test_single_butterfly(self):
        graph = BipartiteGraph(2, 2, edges=[(0, 0), (0, 1), (1, 0), (1, 1)])
        assert count_butterflies(graph) == 1
        assert all(count == 1 for count in edge_butterfly_counts(graph).values())

    def test_no_butterflies_in_a_tree(self, tiny_graph):
        assert count_butterflies(tiny_graph) == 0

    def test_counts_match_bruteforce_on_example(self, example_graph):
        # Brute-force count of 2x2 complete subgraphs.
        from itertools import combinations

        expected = 0
        for v1, v2 in combinations(range(example_graph.n_left), 2):
            common = set(example_graph.neighbors_of_left(v1)) & set(
                example_graph.neighbors_of_left(v2)
            )
            expected += len(common) * (len(common) - 1) // 2
        assert count_butterflies(example_graph) == expected

    def test_k_bitruss_edges_have_support(self, example_graph):
        truss = k_bitruss(example_graph, 2)
        support = edge_butterfly_counts(truss)
        assert all(count >= 2 for count in support.values()) or truss.num_edges == 0

    def test_k_bitruss_zero_is_identity(self, example_graph):
        assert k_bitruss(example_graph, 0).num_edges == example_graph.num_edges

    def test_k_bitruss_rejects_negative(self, example_graph):
        with pytest.raises(ValueError):
            k_bitruss(example_graph, -1)

    def test_bitruss_numbers_consistent(self, example_graph):
        numbers = bitruss_number(example_graph)
        for edge, number in numbers.items():
            if number >= 1:
                truss = k_bitruss(example_graph, number)
                assert edge in set(truss.edges())

    def test_bitruss_numbers_match_bruteforce_maxima(self):
        # Dense 4x4 graph (complete minus a perfect matching): every edge's
        # bitruss number must equal the largest k whose k-bitruss keeps it.
        graph = BipartiteGraph(
            4, 4, edges=[(v, u) for v in range(4) for u in range(4) if v != u]
        )
        numbers = bitruss_number(graph)
        for edge in graph.edges():
            expected = 0
            for k in range(1, graph.num_edges + 1):
                surviving = set(k_bitruss(graph, k).edges())
                if edge in surviving:
                    expected = k
                else:
                    break
            assert numbers[edge] == expected, edge

    def test_incremental_peeling_matches_recompute(self):
        # The incremental support updates must peel exactly the edges the
        # naive recompute-every-round peeling removes.
        def naive_k_bitruss(graph, k):
            working = graph.copy()
            while True:
                support = edge_butterfly_counts(working)
                to_remove = [edge for edge, count in support.items() if count < k]
                if not to_remove:
                    return working
                for v, u in to_remove:
                    working.remove_edge(v, u)

        for seed in range(4):
            graph = erdos_renyi_bipartite(6, 6, num_edges=18 + seed * 4, seed=seed)
            for k in (1, 2, 3):
                assert sorted(k_bitruss(graph, k).edges()) == sorted(
                    naive_k_bitruss(graph, k).edges()
                )

    def test_pivot_side_prefers_cheaper_wedges(self):
        # A single left hub: all wedges are centred on the hub, so anchoring
        # on the left (walking wedges centred on degree-1 right vertices) is
        # the cheap direction — the old inverted branch picked the right side.
        left_hub = BipartiteGraph(1, 8, edges=[(0, u) for u in range(8)])
        assert _pivot_from_left(left_hub) is True
        right_hub = BipartiteGraph(8, 1, edges=[(v, 0) for v in range(8)])
        assert _pivot_from_left(right_hub) is False

    def test_count_identical_from_both_sides(self):
        for seed in range(3):
            graph = erdos_renyi_bipartite(7, 4, num_edges=14 + seed, seed=seed)
            expected = _count_from_side(graph, from_left=True)
            assert _count_from_side(graph, from_left=False) == expected
            assert count_butterflies(graph) == expected

    @staticmethod
    def _naive_edge_supports(graph):
        """Brute-force oracle: the literal 4-loop over rectangle corners."""
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

    @staticmethod
    def _pair_count(graph):
        """Oracle: C(common, 2) summed over left pairs, from the adjacency sets."""
        from itertools import combinations

        expected = 0
        for v1, v2 in combinations(graph.left_vertices(), 2):
            common = len(graph.neighbors_of_left(v1) & graph.neighbors_of_left(v2))
            expected += common * (common - 1) // 2
        return expected

    @pytest.mark.parametrize("route", ROUTES)
    def test_butterfly_backends_agree(self, route):
        for seed in range(3):
            graph = erdos_renyi_bipartite(6, 9, num_edges=20 + seed * 3, seed=seed)
            routed = via(route, graph)
            assert count_butterflies(routed) == self._pair_count(graph)
            assert edge_butterfly_counts(routed) == self._naive_edge_supports(graph)

    def test_edge_supports_match_naive_four_loop_all_backends(self):
        # The oracle is quartic, so it runs once per graph and the graph
        # reached by every construction route is differenced against it.
        cases = [
            erdos_renyi_bipartite(6, 9, num_edges=22 + 4 * seed, seed=seed)
            for seed in range(3)
        ]
        # Side sizes beyond 64 force multi-word masks.
        cases.append(erdos_renyi_bipartite(70, 70, num_edges=260, seed=23))
        for graph in cases:
            expected = self._naive_edge_supports(graph)
            for route in ROUTES:
                assert edge_butterfly_counts(via(route, graph)) == expected, (route, graph)

    @pytest.mark.parametrize("route", ROUTES)
    def test_butterfly_backends_agree_beyond_one_word(self, route):
        # Side sizes beyond 64 force multi-word masks.
        graph = erdos_renyi_bipartite(70, 130, num_edges=650, seed=17)
        routed = via(route, graph)
        expected = self._pair_count(graph)
        assert count_butterflies(routed) == expected
        assert sum(edge_butterfly_counts(routed).values()) == 4 * expected


class TestBitsetGeneralGraph:
    """:class:`Graph` keeps a mask next to every adjacency set."""

    def test_masks_track_edges(self):
        graph = Graph(4, edges=[(0, 1), (1, 2)])
        assert graph.adj_mask(1) == 0b101
        assert graph.adj_mask(3) == 0
        assert graph.full_mask == 0b1111
        graph.add_edge(1, 3)
        assert graph.adj_mask(1) == 0b1101
        assert graph.adj_mask(3) == 0b010

    def test_to_bitset_roundtrip(self):
        """A graph rebuilt from its masks alone has the same edges."""
        from repro.graph import iter_bits

        graph = Graph(70, edges=[(0, 1), (2, 3), (3, 4), (4, 69), (69, 0)])
        from_masks = Graph(
            70, edges=[(u, v) for u in graph.vertices() for v in iter_bits(graph.adj_mask(u))]
        )
        assert sorted(from_masks.edges()) == sorted(graph.edges())
        assert from_masks.num_edges == graph.num_edges

    def test_inflate_bitset_backend(self, tiny_graph):
        inflated = inflate(tiny_graph)
        for u in inflated.vertices():
            assert inflated.adj_mask(u) == sum(1 << v for v in inflated.neighbors(u))
        # The backend argument is gone: passing one fails loudly.
        with pytest.raises(TypeError):
            inflate(tiny_graph, backend="bitset")

    def test_inflate_packed_backend(self):
        """Inflation beyond one word, from every construction route."""
        graph = erdos_renyi_bipartite(40, 35, num_edges=300, seed=8)
        expected = sorted(inflate(graph).edges())
        for route in ROUTES:
            inflated = inflate(via(route, graph))
            assert inflated.num_vertices == 75
            assert inflated.num_edges == inflated_edge_count(graph)
            assert sorted(inflated.edges()) == expected
            for u in inflated.vertices():
                assert inflated.adj_mask(u) == sum(1 << v for v in inflated.neighbors(u))


class TestGenerators:
    def test_er_exact_edge_count(self):
        graph = erdos_renyi_bipartite(10, 12, num_edges=30, seed=3)
        assert graph.num_edges == 30

    def test_er_density_parameter(self):
        graph = erdos_renyi_bipartite(20, 20, edge_density=2.0, seed=3)
        assert graph.num_edges == 80

    def test_er_parameter_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_bipartite(3, 3, num_edges=5, edge_density=1.0)
        with pytest.raises(ValueError):
            erdos_renyi_bipartite(3, 3)
        with pytest.raises(ValueError):
            erdos_renyi_bipartite(2, 2, num_edges=10)

    def test_er_dense_regime(self):
        graph = erdos_renyi_bipartite(6, 6, num_edges=30, seed=1)
        assert graph.num_edges == 30

    def test_er_deterministic_with_seed(self):
        first = erdos_renyi_bipartite(8, 8, num_edges=20, seed=42)
        second = erdos_renyi_bipartite(8, 8, num_edges=20, seed=42)
        assert first == second

    def test_power_law_reaches_target(self):
        graph = power_law_bipartite(30, 30, num_edges=80, seed=5)
        assert graph.num_edges == 80

    def test_planted_blocks_are_k_biplexes(self):
        from repro.core import is_k_biplex

        graph, blocks = planted_biplex_graph_with_blocks(
            20, 20, block_left=5, block_right=5, k=1, num_blocks=2, seed=7
        )
        for left_block, right_block in blocks:
            assert is_k_biplex(graph, left_block, right_block, 1)

    def test_planted_blocks_do_not_fit(self):
        with pytest.raises(ValueError):
            planted_biplex_graph_with_blocks(4, 4, 3, 3, 1, num_blocks=2)

    def test_review_graph_ground_truth(self):
        graph, injection = review_graph_with_camouflage(
            n_real_users=30,
            n_real_products=20,
            n_real_reviews=60,
            n_fake_users=5,
            n_fake_products=5,
            n_fake_reviews=15,
            n_camouflage_reviews=15,
            seed=1,
        )
        assert graph.n_left == 35 and graph.n_right == 25
        assert injection.fake_users == set(range(30, 35))
        assert injection.fake_products == set(range(20, 25))
        # Fake users have both in-block and camouflage edges.
        for user in injection.fake_users:
            neighbors = graph.neighbors_of_left(user)
            assert any(p in injection.fake_products for p in neighbors)

    def test_degree_histogram_sums_to_side_sizes(self, example_graph):
        left_hist, right_hist = degree_histogram(example_graph)
        assert sum(left_hist.values()) == example_graph.n_left
        assert sum(right_hist.values()) == example_graph.n_right


class TestIO:
    def test_edge_list_roundtrip(self, tmp_path, example_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(example_graph, path)
        assert read_edge_list(path) == example_graph

    def test_edge_list_without_header(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("0 0\n1 2\n# comment\n")
        graph = read_edge_list(path)
        assert graph.n_left == 2 and graph.n_right == 3
        assert graph.num_edges == 2

    def test_edge_list_rejects_inconsistent_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("% 1 1\n0 5\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_edge_list_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("justone\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_konect_roundtrip(self, tmp_path, example_graph):
        path = tmp_path / "out.example"
        write_konect(example_graph, path, name="example")
        assert read_konect(path) == example_graph

    def test_konect_rejects_zero_based(self, tmp_path):
        path = tmp_path / "out.bad"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            read_konect(path)
