"""Tests for the bitset substrate and the set/bitset/packed backend matrix."""

import pytest

from backend_matrix import ALL_BACKENDS, random_graphs

from repro.core import (
    BTraversal,
    ITraversal,
    TraversalConfig,
    can_add_left,
    can_add_left_masked,
    can_add_right,
    can_add_right_masked,
    extend_to_maximal,
    initial_solution_left_anchored,
    initial_solution_right_anchored,
    is_k_biplex,
    run_with_stats,
)
from repro.graph import (
    BitsetBipartiteGraph,
    as_backend,
    iter_bits,
    mask_of,
    supports_masks,
)
from repro.graph import erdos_renyi_bipartite
from repro.graph.bipartite import MirrorView


class TestBitsetGraph:
    def test_masks_match_sets(self, example_graph):
        graph = example_graph.to_bitset()
        for v in graph.left_vertices():
            assert set(iter_bits(graph.adj_left_mask(v))) == graph.neighbors_of_left(v)
        for u in graph.right_vertices():
            assert set(iter_bits(graph.adj_right_mask(u))) == graph.neighbors_of_right(u)

    def test_to_bitset_preserves_graph(self, example_graph):
        bitset = example_graph.to_bitset()
        assert isinstance(bitset, BitsetBipartiteGraph)
        assert bitset == example_graph
        assert bitset.num_edges == example_graph.num_edges
        assert supports_masks(bitset) and not supports_masks(example_graph)

    def test_to_bitset_on_bitset_is_identity(self, example_graph):
        bitset = example_graph.to_bitset()
        assert bitset.to_bitset() is bitset

    def test_to_setgraph_roundtrip(self, example_graph):
        assert example_graph.to_bitset().to_setgraph() == example_graph

    def test_add_and_remove_edge_update_masks(self):
        graph = BitsetBipartiteGraph(2, 3)
        assert graph.add_edge(0, 2) is True
        assert graph.add_edge(0, 2) is False
        assert graph.adj_left_mask(0) == 0b100
        assert graph.adj_right_mask(2) == 0b01
        assert graph.num_edges == 1
        assert graph.remove_edge(0, 2) is True
        assert graph.adj_left_mask(0) == 0
        assert graph.adj_right_mask(2) == 0
        assert graph.num_edges == 0

    def test_universe_masks(self):
        graph = BitsetBipartiteGraph(3, 5)
        assert graph.full_left_mask == 0b111
        assert graph.full_right_mask == 0b11111

    def test_derived_graphs_stay_bitset(self, example_graph):
        graph = example_graph.to_bitset()
        assert isinstance(graph.copy(), BitsetBipartiteGraph)
        assert isinstance(graph.swap_sides(), BitsetBipartiteGraph)
        assert isinstance(graph.induced_subgraph([0, 4], [0, 1]), BitsetBipartiteGraph)
        assert graph.swap_sides() == example_graph.swap_sides()
        assert graph.induced_subgraph([0, 4], [0, 1]) == example_graph.induced_subgraph(
            [0, 4], [0, 1]
        )

    def test_as_backend(self, example_graph):
        assert as_backend(example_graph, "set") is example_graph
        converted = as_backend(example_graph, "bitset")
        assert supports_masks(converted)
        assert as_backend(converted, "bitset") is converted
        with pytest.raises(ValueError):
            as_backend(example_graph, "numpy")

    def test_mask_helpers_roundtrip(self):
        assert mask_of([0, 2, 5]) == 0b100101
        assert list(iter_bits(0b100101)) == [0, 2, 5]
        assert list(iter_bits(0)) == []


class TestMirrorViewMasks:
    def test_mirror_forwards_capability(self, example_graph):
        assert not supports_masks(MirrorView(example_graph))
        mirror = MirrorView(example_graph.to_bitset())
        assert supports_masks(mirror)

    def test_mirror_swaps_masks(self, example_graph):
        graph = example_graph.to_bitset()
        mirror = MirrorView(graph)
        for u in graph.right_vertices():
            assert mirror.adj_left_mask(u) == graph.adj_right_mask(u)
        for v in graph.left_vertices():
            assert mirror.adj_right_mask(v) == graph.adj_left_mask(v)


class TestMaskedPrimitives:
    """The masked twins must agree with the set-based primitives everywhere."""

    def _subset_pairs(self, graph):
        import random

        rng = random.Random(42)
        for _ in range(20):
            left = {v for v in graph.left_vertices() if rng.random() < 0.5}
            right = {u for u in graph.right_vertices() if rng.random() < 0.5}
            yield left, right

    @pytest.mark.parametrize("k", [1, 2])
    def test_can_add_agrees(self, k):
        for graph in random_graphs(4, max_side=6, seed=5):
            bitset = graph.to_bitset()
            for left, right in self._subset_pairs(graph):
                left_mask, right_mask = mask_of(left), mask_of(right)
                for v in graph.left_vertices():
                    assert can_add_left_masked(
                        bitset, left_mask, right_mask, v, k
                    ) == can_add_left(graph, set(left), set(right), v, k)
                for u in graph.right_vertices():
                    assert can_add_right_masked(
                        bitset, left_mask, right_mask, u, k
                    ) == can_add_right(graph, set(left), set(right), u, k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_is_k_biplex_agrees(self, k):
        for graph in random_graphs(4, max_side=6, seed=6):
            bitset = graph.to_bitset()
            for left, right in self._subset_pairs(graph):
                assert is_k_biplex(bitset, left, right, k) == is_k_biplex(
                    graph, left, right, k
                )

    @staticmethod
    def _extension_seeds(graph, k, rng):
        """k-biplex seeds reaching every shortcut of the masked greedy pass.

        Yields the empty other side (every left candidate joins in bulk),
        random greedy k-biplexes, ones with ``|R| <= k``, and ones whose
        right vertices all miss at least ``k`` seed vertices (saturated).
        """
        lefts = list(graph.left_vertices())
        rights = list(graph.right_vertices())
        yield set(), set()
        yield set(rng.sample(lefts, len(lefts) // 3)), set()
        for _ in range(6):
            left, right = set(), set()
            for _ in range(rng.randint(1, 12)):
                if rng.random() < 0.5:
                    v = rng.choice(lefts)
                    if can_add_left(graph, left, right, v, k):
                        left.add(v)
                else:
                    u = rng.choice(rights)
                    if can_add_right(graph, left, right, u, k):
                        right.add(u)
            yield left, right
        for size in (1, k + 1, k + 2):
            right = set(rng.sample(rights, min(size, len(rights))))
            left = set()
            for v in rng.sample(lefts, len(lefts)):
                unsaturated = [u for u in right if graph.missing_right(u, left) < k]
                if not unsaturated:
                    break
                if not graph.has_edge(v, unsaturated[0]) and can_add_left(
                    graph, left, right, v, k
                ):
                    left.add(v)
            yield left, right

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_extend_to_maximal_identical(self, k):
        """The masked extension equals the set path bit for bit.

        Runs bitset and packed on small graphs, on a multi-word graph below
        the 96-vertex sweep crossover and on one above it, with full,
        restricted and empty candidate pools.
        """
        import random

        rng = random.Random(k)
        graphs = random_graphs(4, max_side=6, seed=7) + [
            erdos_renyi_bipartite(70, 80, edge_density=24.0, seed=k),
            erdos_renyi_bipartite(100, 110, edge_density=40.0, seed=k),
        ]
        reached = set()
        for graph in graphs:
            substrates = [as_backend(graph, "bitset"), as_backend(graph, "packed")]
            lefts = list(graph.left_vertices())
            rights = list(graph.right_vertices())
            seeds = list(self._extension_seeds(graph, k, rng))
            seeds += [
                (left, right)
                for left, right in self._subset_pairs(graph)
                if is_k_biplex(graph, left, right, k)
            ]
            for left, right in seeds:
                assert is_k_biplex(graph, left, right, k)
                if not right:
                    reached.add("bulk")
                elif len(right) <= k:
                    reached.add("small")
                if right and all(graph.missing_right(u, left) >= k for u in right):
                    reached.add("saturated")
                pools = [
                    (None, None),
                    (None, ()),
                    ((), None),
                    (
                        rng.sample(lefts, len(lefts) // 2),
                        rng.sample(rights, len(rights) // 2),
                    ),
                ]
                for candidate_left, candidate_right in pools:
                    expected = extend_to_maximal(
                        graph, left, right, k, candidate_left, candidate_right
                    )
                    for substrate in substrates:
                        assert extend_to_maximal(
                            substrate, left, right, k, candidate_left, candidate_right
                        ) == expected
        assert reached == {"bulk", "small", "saturated"}

    @pytest.mark.parametrize("k", [1, 2])
    def test_initial_solutions_identical(self, k):
        for graph in random_graphs(6, max_side=6, seed=8):
            bitset = graph.to_bitset()
            assert initial_solution_left_anchored(bitset, k) == initial_solution_left_anchored(
                graph, k
            )
            assert initial_solution_right_anchored(bitset, k) == initial_solution_right_anchored(
                graph, k
            )


class TestBackendEquivalence:
    """Property-style check: every backend enumerates the identical MBP *list*
    (same solutions in the same order) as the plain-set reference."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_itraversal_backends_agree(self, k, backend):
        for graph in random_graphs(6, max_side=6, seed=1):
            expected = [s.key() for s in ITraversal(graph, k, backend="set").enumerate()]
            got = [s.key() for s in ITraversal(graph, k, backend=backend).enumerate()]
            assert got == expected

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_btraversal_backends_agree(self, k, backend):
        for graph in random_graphs(6, max_side=6, seed=2):
            expected = [s.key() for s in BTraversal(graph, k, backend="set").enumerate()]
            got = [s.key() for s in BTraversal(graph, k, backend=backend).enumerate()]
            assert got == expected

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("variant", ["full", "no-exclusion", "left-anchored-only"])
    def test_variants_agree_on_example(self, example_graph, variant, backend):
        expected = set(ITraversal(example_graph, 1, variant=variant, backend="set").enumerate())
        got = set(ITraversal(example_graph, 1, variant=variant, backend=backend).enumerate())
        assert got == expected

    def test_bitset_input_graph_used_directly(self, example_graph):
        bitset = example_graph.to_bitset()
        expected = set(ITraversal(example_graph, 1).enumerate())
        assert set(ITraversal(bitset, 1).enumerate()) == expected

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_stats_counters_identical(self, example_graph, backend):
        # The θ run on the unreduced graph reaches the Γ(v, R) anchor prune,
        # whose count must not depend on how the backend scores Γ.
        for overrides in ({}, {"theta_left": 4, "theta_right": 4, "prep": "off"}):
            _, set_stats = run_with_stats(
                example_graph, 1, TraversalConfig(backend="set", **overrides)
            )
            _, stats = run_with_stats(
                example_graph, 1, TraversalConfig(backend=backend, **overrides)
            )
            assert set_stats.num_solutions == stats.num_solutions
            assert set_stats.num_links == stats.num_links
            assert set_stats.num_almost_sat_graphs == stats.num_almost_sat_graphs
            assert set_stats.num_local_solutions == stats.num_local_solutions
            assert set_stats.num_pruned_anchor == stats.num_pruned_anchor
            assert stats.num_pruned_anchor > 0 or not overrides

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            TraversalConfig(backend="gpu")


class TestDefaultBackend:
    def test_bitset_is_the_default(self, monkeypatch):
        from repro.graph import BACKEND_ENV_VAR, default_backend
        from repro.graph.bipartite import paper_example_graph

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend() == "bitset"
        assert TraversalConfig().backend == "bitset"
        engine_graph = ITraversal(paper_example_graph(), 1)._engine.graph
        assert supports_masks(engine_graph)

    def test_env_var_overrides_default(self, monkeypatch):
        from repro.graph import BACKEND_ENV_VAR, default_backend

        monkeypatch.setenv(BACKEND_ENV_VAR, "set")
        assert default_backend() == "set"
        assert TraversalConfig().backend == "set"
        monkeypatch.setenv(BACKEND_ENV_VAR, "packed")
        assert default_backend() == "packed"
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        with pytest.raises(ValueError):
            default_backend()


class TestCliBackend:
    def test_enumerate_with_bitset_backend(self, tmp_path, capsys, example_graph):
        from repro.cli import main
        from repro.graph import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(example_graph, path)
        assert main(["enumerate", "--input", str(path), "--backend", "bitset", "--quiet"]) == 0
        bitset_out = capsys.readouterr().out
        assert main(["enumerate", "--input", str(path), "--quiet"]) == 0
        set_out = capsys.readouterr().out
        # Identical solution counts; only the timing figure may differ.
        assert bitset_out.split("elapsed")[0] == set_out.split("elapsed")[0]
