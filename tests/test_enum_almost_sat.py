"""Tests for the EnumAlmostSat procedure and its refinement variants."""

import hashlib
import random
from types import SimpleNamespace

import pytest

from repro.core import Biplex, ITraversal
from repro.core.biplex import extend_to_maximal
from repro.core.enum_almost_sat import (
    EnumAlmostSatConfig,
    LocalSolutionTable,
    enum_local_solutions,
    enum_local_solutions_inflation,
    enum_local_solutions_naive,
)
from repro.graph import erdos_renyi_bipartite, paper_example_graph
from repro.graph.protocol import mask_of

ALL_CONFIGS = [
    EnumAlmostSatConfig(right_refinement=r, left_refinement=l) for r in (1, 2) for l in (1, 2)
]


class TestConfig:
    def test_labels(self):
        assert EnumAlmostSatConfig(2, 2).label == "L2.0+R2.0"
        assert EnumAlmostSatConfig(right_refinement=1, left_refinement=2).label == "L2.0+R1.0"

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            EnumAlmostSatConfig(right_refinement=3)
        with pytest.raises(ValueError):
            EnumAlmostSatConfig(left_refinement=0)


class TestPaperExample:
    def test_example_3_1(self, example_graph):
        """From H0 = ({v4}, R) adding v0 yields the local solution ({v0, v4}, R \\ {u4})."""
        locals_found = list(
            enum_local_solutions(example_graph, {4}, set(range(5)), 0, 1)
        )
        assert Biplex.of([0, 4], [0, 1, 2, 3]) in locals_found

    def test_example_3_2_round_one(self, example_graph):
        """From H0 adding v1: the local solution ({v1, v4}, {u0..u3}) appears."""
        locals_found = list(
            enum_local_solutions(example_graph, {4}, set(range(5)), 1, 1)
        )
        assert Biplex.of([1, 4], [0, 1, 2, 3]) in locals_found

    def test_example_3_2_round_two(self, example_graph):
        """From H1 = ({v0, v1, v4}, {u0..u3}) adding v2: ({v1, v2, v4}, {u0, u1, u2})."""
        locals_found = list(
            enum_local_solutions(example_graph, {0, 1, 4}, {0, 1, 2, 3}, 2, 1)
        )
        assert Biplex.of([1, 2, 4], [0, 1, 2]) in locals_found

    def test_every_local_solution_contains_v(self, example_graph):
        for v in (0, 1, 2, 3):
            for local in enum_local_solutions(example_graph, {4}, set(range(5)), v, 1):
                assert v in local.left

    def test_rejects_vertex_already_in_solution(self, example_graph):
        with pytest.raises(ValueError):
            list(enum_local_solutions(example_graph, {4}, set(range(5)), 4, 1))


class TestAgainstNaive:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    def test_all_refinements_match_naive_on_example(self, example_graph, config):
        solution_left, solution_right = {4}, set(range(5))
        for v in (0, 1, 2, 3):
            fast = set(
                enum_local_solutions(example_graph, solution_left, solution_right, v, 1, config)
            )
            naive = set(
                enum_local_solutions_naive(example_graph, solution_left, solution_right, v, 1)
            )
            assert fast == naive

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 2])
    def test_refinements_match_naive_on_random_graphs(self, seed, k):
        graph = erdos_renyi_bipartite(4, 4, num_edges=7 + seed % 6, seed=seed)
        solutions = ITraversal(graph, k).enumerate()
        for solution in solutions[:2]:
            outside = [v for v in graph.left_vertices() if v not in solution.left]
            for v in outside[:2]:
                naive = set(
                    enum_local_solutions_naive(
                        graph, set(solution.left), set(solution.right), v, k
                    )
                )
                for config in ALL_CONFIGS:
                    fast = set(
                        enum_local_solutions(
                            graph, set(solution.left), set(solution.right), v, k, config
                        )
                    )
                    assert fast == naive, config.label

    @pytest.mark.parametrize("seed", range(5))
    def test_inflation_variant_matches_naive(self, seed):
        graph = erdos_renyi_bipartite(4, 4, num_edges=8, seed=100 + seed)
        k = 1
        solutions = ITraversal(graph, k).enumerate()
        solution = solutions[0]
        outside = [v for v in graph.left_vertices() if v not in solution.left]
        if not outside:
            pytest.skip("solution already covers the left side")
        v = outside[0]
        naive = set(
            enum_local_solutions_naive(graph, set(solution.left), set(solution.right), v, k)
        )
        inflation = set(
            enum_local_solutions_inflation(graph, set(solution.left), set(solution.right), v, k)
        )
        assert inflation == naive


class TestSharedTable:
    """Anchors of one solution share one table and get what a fresh call gives.

    Each trial draws a seeded ER graph, ``k`` and, in some trials, a
    ``min_right_size``.  For each solution of a capped iTraversal run it
    walks the outside anchors in ascending order, as an expansion does,
    with the anchors walked so far as the exclusion prefix, through one
    shared :class:`LocalSolutionTable`.
    """

    def test_shared_table_matches_fresh_calls(self):
        anchors = builds = skips = sized = 0
        for seed in range(60):
            rng = random.Random(seed)
            # Sparse and left-heavy, like the paper's graphs: many anchors
            # per solution, and many of them with the same neighbours in R.
            n_left, n_right = rng.randint(10, 16), rng.randint(4, 8)
            k = (1, 2, 3)[seed % 3]
            pairs = n_left * n_right
            graph = erdos_renyi_bipartite(
                n_left, n_right, num_edges=rng.randint(pairs // 6, pairs // 3), seed=seed
            )
            min_right = rng.choice((0, 0, 2, 3))
            solutions = ITraversal(graph, k, max_results=10, prep="off", jobs=1).enumerate()
            for solution in solutions:
                left, right = solution.left_mask, solution.right_mask
                table = LocalSolutionTable(graph, left, right)
                prefixes = {}
                prefix = 0
                for v in graph.left_vertices():
                    if (left >> v) & 1:
                        continue
                    shared = SimpleNamespace(num_pruned_exclusion=0)
                    fresh = SimpleNamespace(num_pruned_exclusion=0)
                    call = (graph, left, right, v, k)
                    limits = dict(min_right_size=min_right, exclusion=prefix)
                    got = list(enum_local_solutions(*call, stats=shared, table=table, **limits))
                    want = list(enum_local_solutions(*call, stats=fresh, **limits))
                    assert got == want, (seed, solution, v)
                    assert shared.num_pruned_exclusion == fresh.num_pruned_exclusion
                    prefixes.setdefault(right & graph.adj_left_mask(v), []).append(prefix)
                    prefix |= 1 << v
                    anchors += 1
                    skips += fresh.num_pruned_exclusion
                    sized += bool(min_right)
                # A right side's left removals are built once some anchor of
                # its type does not skip it, and only then.
                assert set(table.right_sides) == set(prefixes)
                for kind, sides in table.right_sides.items():
                    for r_prime, cover, lefts, *_ in sides:
                        reached = any(not p & cover for p in prefixes[kind])
                        assert (lefts is not None) == reached, (seed, solution, r_prime)
                builds += len(table.right_sides)
        # Types repeat (one table entry serves several anchors), and the
        # sweep reaches the exclusion skip and the size filter.
        assert anchors > 2 * builds and skips > 1000 and sized > 1000, (
            anchors, builds, skips, sized
        )


class TestMinRightSize:
    def test_min_right_size_filters_small_local_solutions(self, example_graph):
        left, right = {4}, set(range(5))
        unfiltered = list(enum_local_solutions(example_graph, left, right, 0, 1))
        filtered = list(
            enum_local_solutions(example_graph, left, right, 0, 1, min_right_size=4)
        )
        assert all(len(local.right) >= 4 for local in filtered)
        assert set(filtered) <= set(unfiltered)

    def test_min_right_size_zero_is_noop(self, example_graph):
        left, right = {4}, set(range(5))
        assert set(enum_local_solutions(example_graph, left, right, 0, 1)) == set(
            enum_local_solutions(example_graph, left, right, 0, 1, min_right_size=0)
        )


class TestCounting:
    def test_no_duplicate_local_solutions(self, example_graph):
        left, right = {4}, set(range(5))
        for v in (0, 1, 2, 3):
            found = list(enum_local_solutions(example_graph, left, right, v, 1))
            assert len(found) == len(set(found))


class TestExclusionPrune:
    """The ``exclusion`` mask drops only local solutions whose children hold it.

    Each trial draws a seeded ER graph, a maximal solution from a capped
    iTraversal run, an outside anchor ``v`` and a random exclusion mask
    over the other outside left vertices, then runs EnumAlmostSat with and
    without the mask.
    """

    #: sha256 prefix over every trial's unpruned output, in order.
    UNPRUNED_DIGEST = "ce2201b3cc2199e5"

    @staticmethod
    def _trials():
        for seed in range(150):
            rng = random.Random(seed)
            n_left, n_right = rng.randint(4, 10), rng.randint(4, 10)
            k = rng.choice((1, 2, 3))
            pairs = n_left * n_right
            graph = erdos_renyi_bipartite(
                n_left, n_right, num_edges=rng.randint(pairs // 3, 4 * pairs // 5), seed=seed
            )
            # prep and jobs pinned: the capped selection must not follow
            # REPRO_PREP or REPRO_JOBS.
            solutions = ITraversal(graph, k, max_results=12, prep="off", jobs=1).enumerate()
            for solution in solutions:
                outside = [w for w in graph.left_vertices() if w not in solution.left]
                if not outside:
                    continue
                v = rng.choice(outside)
                exclusion = mask_of(w for w in outside if w != v and rng.random() < 0.5)
                yield graph, k, solution, v, exclusion

    def test_prune_drops_only_excluded_children(self):
        hasher = hashlib.sha256()
        calls = drops = 0
        for graph, k, solution, v, exclusion in self._trials():
            left, right = solution.left_mask, solution.right_mask
            unpruned = list(enum_local_solutions(graph, left, right, v, k))
            assert list(enum_local_solutions(graph, left, right, v, k, exclusion=0)) == unpruned
            for local in unpruned:
                hasher.update(repr(local.key()).encode())
            counters = SimpleNamespace(num_pruned_exclusion=0)
            pruned = list(
                enum_local_solutions(
                    graph, left, right, v, k, exclusion=exclusion, stats=counters
                )
            )
            # An ordered subsequence: walk the unpruned list once.
            remaining = iter(unpruned)
            assert all(local in remaining for local in pruned)
            kept = set(pruned)
            dropped = [local for local in unpruned if local not in kept]
            for local in dropped:
                child = extend_to_maximal(
                    graph, local.left_mask, local.right_mask, k, candidate_right=()
                )
                assert child.left_mask & exclusion, (solution, v, exclusion, local)
            assert counters.num_pruned_exclusion >= len({local.right_mask for local in dropped})
            calls += 1
            drops += len(dropped)
        # The sweep must exercise the prune, and its unpruned output is
        # what EnumAlmostSat gave before the mask existed.
        assert calls > 1000 and drops > 200, (calls, drops)
        assert hasher.hexdigest()[:16] == self.UNPRUNED_DIGEST
