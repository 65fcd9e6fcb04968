"""Tests for the adjacency masks, every graph's one adjacency store.

The enumeration hot paths run on the masks; the set-query predicates of
``repro.core.biplex``, running set logic over neighbour sets built from the
masks, are the independent oracles they are checked against.  The mask
contents themselves are checked against reference edge sets the tests keep
through the same mutations.  The equivalence suites run on every
construction route of ``graph_samples.ROUTES``.
"""

import pytest

from graph_samples import (
    PAPER_EDGES,
    ROUTES,
    assert_masks_match_edges,
    induced,
    random_graphs,
    swapped,
    via,
)

from repro.baselines import enumerate_mbps_bruteforce
from repro.core import (
    BTraversal,
    Biplex,
    EnumerationSession,
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
)
from repro.graph import (
    BipartiteGraph,
    Graph,
    erdos_renyi_bipartite,
    iter_bits,
    mask_of,
)


class TestBitsetGraph:
    def test_masks_match_sets(self, example_graph):
        assert_masks_match_edges(example_graph, PAPER_EDGES)

    def test_neighbour_sets_are_copies(self, example_graph):
        """A neighbour set is built from the mask on each call: mutating it
        leaves the graph, its masks and its edge count unchanged."""
        graph = example_graph.copy()
        graph.neighbors_of_left(0).add(2)
        graph.neighbors_of_right(2).add(0)
        graph.neighbors_of_left(4).clear()
        assert not graph.has_edge(0, 2) and graph.has_edge(4, 0)
        assert_masks_match_edges(graph, PAPER_EDGES)
        general = Graph(3, edges=[(0, 1), (1, 2)])
        general.neighbors(0).add(2)
        assert not general.has_edge(0, 2)
        assert_masks_match_edges(general, {(0, 1), (1, 2)})

    def test_add_and_remove_edge_update_masks(self):
        graph = BipartiteGraph(2, 3)
        assert graph.add_edge(0, 2) is True
        assert graph.add_edge(0, 2) is False
        assert graph.adj_left_mask(0) == 0b100
        assert graph.adj_right_mask(2) == 0b01
        assert graph.num_edges == 1
        assert graph.remove_edge(0, 2) is True
        assert graph.adj_left_mask(0) == 0
        assert graph.adj_right_mask(2) == 0
        assert graph.num_edges == 0

    def test_derived_graphs_stay_bitset(self, example_graph):
        """Copies, mirrors and induced subgraphs carry correct masks too."""
        for derived, edges in (
            (example_graph.copy(), PAPER_EDGES),
            (example_graph.swap_sides(), swapped(PAPER_EDGES)),
            (
                example_graph.induced_subgraph([0, 4], [0, 1]),
                induced(PAPER_EDGES, [0, 4], [0, 1]),
            ),
        ):
            assert_masks_match_edges(derived, edges)

    def test_as_backend(self, example_graph):
        from repro.graph.protocol import as_backend

        assert as_backend(example_graph) is example_graph
        assert as_backend(example_graph, "set") is example_graph

    def test_to_bitset_preserves_graph(self, example_graph):
        """No conversion is left: every graph already carries its masks, and
        ``as_backend`` hands back the very object under any legacy name."""
        from repro.graph.protocol import as_backend

        for name in ("set", "bitset", "packed"):
            assert as_backend(example_graph, name) is example_graph
        assert_masks_match_edges(example_graph, PAPER_EDGES)

    def test_to_bitset_on_bitset_is_identity(self, example_graph):
        """The engine and the registry, where tracers wrap ``as_backend``,
        both resolve it to the identity."""
        from repro.core import traversal
        from repro.service import registry

        assert traversal.as_backend(example_graph) is example_graph
        assert registry.as_backend(example_graph) is example_graph

    def test_to_setgraph_roundtrip(self, example_graph):
        """A graph rebuilt from its masks alone equals the graph."""
        from_masks = BipartiteGraph(
            example_graph.n_left,
            example_graph.n_right,
            [
                (v, u)
                for v in example_graph.left_vertices()
                for u in iter_bits(example_graph.adj_left_mask(v))
            ],
        )
        assert from_masks == example_graph
        assert from_masks.num_edges == example_graph.num_edges

    def test_mask_helpers_roundtrip(self):
        assert mask_of([0, 2, 5]) == 0b100101
        assert list(iter_bits(0b100101)) == [0, 2, 5]
        assert list(iter_bits(0)) == []


class TestMaskLockstep:
    """Both mask directions hold the reference edge set the test keeps
    through every kind of mutation, on both graph classes."""

    def test_bipartite_graph_mutations(self):
        import random

        rng = random.Random(3)
        edges = {(rng.randrange(70), rng.randrange(66)) for _ in range(900)}
        graph = BipartiteGraph(70, 66, edges)
        assert_masks_match_edges(graph, edges)
        for _ in range(300):
            v, u = rng.randrange(graph.n_left), rng.randrange(graph.n_right)
            if rng.random() < 0.5:
                assert graph.add_edge(v, u) is ((v, u) not in edges)
                edges.add((v, u))
            else:
                assert graph.remove_edge(v, u) is ((v, u) in edges)
                edges.discard((v, u))
        assert_masks_match_edges(graph, edges)
        inserts = [(rng.randrange(70), rng.randrange(66)) for _ in range(40)]
        deletes = rng.sample(sorted(edges), 40)
        graph.apply_batch(inserts=inserts, deletes=deletes)
        edges.update(inserts)
        edges.difference_update(deletes)
        assert_masks_match_edges(graph, edges)

    def test_general_graph_mutations(self):
        import random

        rng = random.Random(4)
        graph = Graph(80)
        edges = set()
        for _ in range(600):
            u, v = rng.sample(range(80), 2)
            assert graph.add_edge(u, v) is (frozenset((u, v)) not in edges)
            edges.add(frozenset((u, v)))
        assert_masks_match_edges(graph, [tuple(edge) for edge in edges])
        assert graph.full_mask == (1 << 80) - 1


def _reference_extension(graph, left, right, k, candidate_left=None, candidate_right=None):
    """The greedy extension by definition: ascending ids, left side first,
    each candidate added when the set-query ``can_add_left/right`` allows."""
    left, right = set(left), set(right)
    left_pool = graph.left_vertices() if candidate_left is None else sorted(set(candidate_left))
    for v in left_pool:
        if v not in left and can_add_left(graph, left, right, v, k):
            left.add(v)
    right_pool = (
        graph.right_vertices() if candidate_right is None else sorted(set(candidate_right))
    )
    for u in right_pool:
        if u not in right and can_add_right(graph, left, right, u, k):
            right.add(u)
    return Biplex.of(left, right)


class TestMaskedPrimitives:
    """The mask primitives against the set-query oracles."""

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
            for left, right in self._subset_pairs(graph):
                left_mask, right_mask = mask_of(left), mask_of(right)
                for v in graph.left_vertices():
                    assert can_add_left_masked(
                        graph, left_mask, right_mask, v, k
                    ) == can_add_left(graph, set(left), set(right), v, k)
                for u in graph.right_vertices():
                    assert can_add_right_masked(
                        graph, left_mask, right_mask, u, k
                    ) == can_add_right(graph, set(left), set(right), u, k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_is_k_biplex_agrees(self, k):
        """The set-query predicate against Definition 2.1 evaluated on masks,
        on every construction route."""
        for base in random_graphs(4, max_side=6, seed=6):
            for left, right in self._subset_pairs(base):
                left_mask, right_mask = mask_of(left), mask_of(right)
                by_masks = all(
                    (right_mask & ~base.adj_left_mask(v)).bit_count() <= k for v in left
                ) and all(
                    (left_mask & ~base.adj_right_mask(u)).bit_count() <= k for u in right
                )
                assert is_k_biplex(base, left, right, k) == by_masks
                for route in ROUTES:
                    assert is_k_biplex(via(route, base), left, right, k) == by_masks

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
        """The mask extension equals the reference greedy bit for bit.

        Small graphs and two multi-word graphs (over 64 vertices a side),
        with full, restricted, empty and duplicated candidate pools.
        """
        import random

        rng = random.Random(k)
        graphs = random_graphs(4, max_side=6, seed=7) + [
            erdos_renyi_bipartite(70, 80, edge_density=24.0, seed=k),
            erdos_renyi_bipartite(100, 110, edge_density=40.0, seed=k),
        ]
        reached = set()
        for graph in graphs:
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
                half_left = rng.sample(lefts, len(lefts) // 2)
                half_right = rng.sample(rights, len(rights) // 2)
                pools = [
                    (None, None),
                    (None, ()),
                    ((), None),
                    (half_left, half_right),
                    (half_left * 2, half_right + half_right[::-1]),
                ]
                for candidate_left, candidate_right in pools:
                    assert extend_to_maximal(
                        graph, left, right, k, candidate_left, candidate_right
                    ) == _reference_extension(
                        graph, left, right, k, candidate_left, candidate_right
                    )
        assert reached == {"bulk", "small", "saturated"}

    @pytest.mark.parametrize("k", [1, 2])
    def test_initial_solutions_identical(self, k):
        for graph in random_graphs(6, max_side=6, seed=8):
            assert initial_solution_left_anchored(graph, k) == _reference_extension(
                graph, (), graph.right_vertices(), k, candidate_right=()
            )
            assert initial_solution_right_anchored(graph, k) == _reference_extension(
                graph, graph.left_vertices(), (), k, candidate_left=()
            )


def _run_session(graph, config):
    """A session's full stream at k = 1, and its stats."""
    session = EnumerationSession(graph, 1, config)
    return list(session.stream()), session.stats


class TestBackendEquivalence:
    """Property-style check: the graph reached by every construction route
    enumerates the identical MBP *list* (same solutions in the same order)
    as the constructor-built graph, and that set is the brute force's."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("k", [1, 2])
    def test_itraversal_backends_agree(self, k, route):
        for graph in random_graphs(6, max_side=6, seed=1):
            expected = [s.key() for s in ITraversal(graph, k).enumerate()]
            got = [s.key() for s in ITraversal(via(route, graph), k).enumerate()]
            assert got == expected
            assert set(got) == {s.key() for s in enumerate_mbps_bruteforce(graph, k)}

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("k", [1, 2])
    def test_btraversal_backends_agree(self, k, route):
        for graph in random_graphs(6, max_side=6, seed=2):
            expected = [s.key() for s in BTraversal(graph, k).enumerate()]
            got = [s.key() for s in BTraversal(via(route, graph), k).enumerate()]
            assert got == expected
            assert set(got) == {s.key() for s in enumerate_mbps_bruteforce(graph, k)}

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("variant", ["full", "no-exclusion", "left-anchored-only"])
    def test_variants_agree_on_example(self, example_graph, variant, route):
        expected = set(enumerate_mbps_bruteforce(example_graph, 1))
        graph = via(route, example_graph)
        assert set(ITraversal(graph, 1, variant=variant).enumerate()) == expected

    def test_bitset_input_graph_used_directly(self, example_graph):
        """The engine enumerates the caller's object: no conversion copy."""
        expected = set(enumerate_mbps_bruteforce(example_graph, 1))
        for prep in ("off", "core", "core+order"):
            algorithm = ITraversal(example_graph, 1, prep=prep)
            assert algorithm._engine.graph is example_graph
            assert set(algorithm.enumerate()) == expected

    @pytest.mark.parametrize("route", ROUTES)
    def test_stats_counters_identical(self, example_graph, route):
        # The θ run on the unreduced graph reaches the Γ(v, R) anchor prune,
        # whose count must not depend on how the graph was built.
        graph = via(route, example_graph)
        for overrides in ({}, {"theta_left": 4, "theta_right": 4, "prep": "off"}):
            _, reference = _run_session(example_graph, TraversalConfig(**overrides))
            solutions, stats = _run_session(graph, TraversalConfig(**overrides))
            assert reference.num_solutions == stats.num_solutions
            assert reference.num_links == stats.num_links
            assert reference.num_almost_sat_graphs == stats.num_almost_sat_graphs
            assert reference.num_local_solutions == stats.num_local_solutions
            assert reference.num_pruned_anchor == stats.num_pruned_anchor
            assert stats.num_pruned_anchor > 0 or not overrides
            if not overrides:
                assert set(solutions) == set(enumerate_mbps_bruteforce(example_graph, 1))

    def test_config_rejects_unknown_backend(self, example_graph):
        """The backend knob is gone: passing one fails loudly."""
        with pytest.raises(TypeError):
            TraversalConfig(backend="gpu")
        with pytest.raises(TypeError):
            ITraversal(example_graph, 1, backend="bitset")


class TestDefaultBackend:
    def test_bitset_is_the_default(self):
        from repro.graph.protocol import default_backend

        assert default_backend() == "bitset"

    def test_legacy_env_var_is_ignored(self, monkeypatch, example_graph):
        from repro.core import ITraversal

        expected = [s.key() for s in ITraversal(example_graph, 1).enumerate()]
        for value in ("set", "packed", "numpy"):
            monkeypatch.setenv("REPRO_BACKEND", value)
            assert [s.key() for s in ITraversal(example_graph, 1).enumerate()] == expected
        with pytest.raises(TypeError):
            TraversalConfig(backend="set")


class TestCliBackend:
    def test_enumerate_with_bitset_backend(self, tmp_path, capsys, example_graph):
        """``--backend`` is gone: the CLI rejects it, and the plain run
        reports the brute force's solution count."""
        from repro.cli import main
        from repro.graph import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(example_graph, path)
        with pytest.raises(SystemExit) as excinfo:
            main(["enumerate", "--input", str(path), "--backend", "bitset", "--quiet"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err
        assert main(["enumerate", "--input", str(path), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert f"solutions={len(enumerate_mbps_bruteforce(example_graph, 1))} " in out
