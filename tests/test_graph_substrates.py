"""Tests for the general graph, inflation, cores, butterfly supports, generators and I/O."""

import pytest

from graph_samples import ROUTES, via

from repro.graph import (
    BipartiteGraph,
    Graph,
    alpha_beta_core,
    erdos_renyi_bipartite,
    inflate,
    inflated_edge_count,
    planted_biplex_graph_with_blocks,
    power_law_bipartite,
    read_edge_list,
    read_konect,
    review_graph_with_camouflage,
    split_vertex_set,
    write_edge_list,
    write_konect,
)
from repro.graph.cores import Peel
from repro.prep import reduce_for_thresholds


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
        # Right vertex u has id 5 + u there.
        vertex_set = frozenset({0, 1, 4} | {5 + u for u in (0, 1, 2, 3)})
        assert inflated.subgraph_is_kplex(vertex_set, 2)

    def test_split_and_join_roundtrip(self):
        left, right = frozenset({0, 2}), frozenset({1, 3})
        joined = left | {5 + u for u in right}
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
        # k = 2, θ_L = 4, θ_R = 5: the (3, 2)-core, no bitruss peel, compacted.
        reduction = reduce_for_thresholds(example_graph, 2, 4, 5)
        subgraph, left_map, right_map = reduction.graph, reduction.left_map, reduction.right_map
        assert (left_map, right_map) == tuple(
            sorted(side) for side in alpha_beta_core(example_graph, 3, 2)
        )
        assert 0 < len(left_map) < example_graph.n_left
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
        reduction = reduce_for_thresholds(example_graph, k, theta, theta)
        core_left = set(reduction.left_map or example_graph.left_vertices())
        core_right = set(reduction.right_map or example_graph.right_vertices())
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
    """The butterfly supports and the bitruss peel of :class:`Peel`, which
    every thresholded plan runs."""

    @staticmethod
    def _bitruss(graph, t):
        """The t-bitruss of ``graph``, through the peel prep runs."""
        peel = Peel(graph)
        peel.bitruss(t)
        return peel.compact()[0]

    def test_single_butterfly(self):
        graph = BipartiteGraph(2, 2, edges=[(0, 0), (0, 1), (1, 0), (1, 1)])
        assert Peel(graph).supports() == dict.fromkeys(graph.edges(), 1)

    def test_no_butterflies_in_a_tree(self, tiny_graph):
        assert set(Peel(tiny_graph).supports().values()) == {0}

    def test_counts_match_bruteforce_on_example(self, example_graph):
        # Each butterfly holds four edges.
        supports = Peel(example_graph).supports()
        assert sum(supports.values()) == 4 * self._pair_count(example_graph)

    def test_k_bitruss_edges_have_support(self, example_graph):
        truss = self._bitruss(example_graph, 2)
        support = Peel(truss).supports()
        assert all(count >= 2 for count in support.values()) or truss.num_edges == 0

    def test_incremental_peeling_matches_recompute(self):
        # The incremental support updates must peel exactly the edges the
        # naive recompute-every-round peeling removes.
        def naive_k_bitruss(graph, k):
            working = graph.copy()
            while True:
                support = self._naive_edge_supports(working)
                to_remove = [edge for edge, count in support.items() if count < k]
                if not to_remove:
                    return working
                for v, u in to_remove:
                    working.remove_edge(v, u)

        for seed in range(4):
            graph = erdos_renyi_bipartite(6, 6, num_edges=18 + seed * 4, seed=seed)
            for k in (1, 2, 3):
                assert sorted(self._bitruss(graph, k).edges()) == sorted(
                    naive_k_bitruss(graph, k).edges()
                )

    def test_count_identical_from_both_sides(self):
        # The supports read the left masks; on the side-swapped graph they
        # read the other side's, and must count the same butterflies.
        for seed in range(3):
            graph = erdos_renyi_bipartite(7, 4, num_edges=14 + seed, seed=seed)
            swapped = Peel(graph.swap_sides()).supports()
            assert {(v, u): count for (u, v), count in swapped.items()} == Peel(graph).supports()

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
            assert Peel(via(route, graph)).supports() == self._naive_edge_supports(graph)

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
                assert Peel(via(route, graph)).supports() == expected, (route, graph)

    @pytest.mark.parametrize("route", ROUTES)
    def test_butterfly_backends_agree_beyond_one_word(self, route):
        # Side sizes beyond 64 force multi-word masks.
        graph = erdos_renyi_bipartite(70, 130, num_edges=650, seed=17)
        expected = self._pair_count(graph)
        assert sum(Peel(via(route, graph)).supports().values()) == 4 * expected


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
