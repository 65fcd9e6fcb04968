"""Unit tests for the preprocessing pipeline (:mod:`repro.prep`).

Covers the pieces the differential harness cannot attribute precisely:

* the threshold-driven bounds themselves (asymmetric core, bitruss support),
* soundness of the reduction against the brute-force oracle — every
  θ-large maximal k-biplex survives, nothing extra appears,
* the fixpoint property the parallel workers rely on (re-reducing a
  reduced graph is an identity),
* id remapping round-trips on graphs with isolated and peeled vertices,
* the degeneracy ordering (valid permutations, deterministic),
* prep-mode resolution (``REPRO_PREP``, invalid values),
* the exact output of the prep ablation on three pinned regimes,
* the re-exploration cascade fallback's re-arm discipline.
"""

from __future__ import annotations

import hashlib

import pytest
from graph_samples import ROUTES, via

from repro.baselines import enumerate_mbps_bruteforce
from repro.core import ITraversal
from repro.core.verify import filter_large
from repro.graph import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    paper_example_graph,
    planted_biplex_graph,
)
from repro.prep import (
    PREP_MODES,
    bitruss_support_bound,
    default_prep,
    degeneracy_order,
    prepare,
    reduce_for_thresholds,
    resolve_prep,
    threshold_core_bounds,
)


def graph_with_fringe() -> BipartiteGraph:
    """A dense 3x3 block plus pendant/isolated vertices on both sides.

    Left vertices 3/4 hang off the block with a single edge each, left
    vertex 5 and right vertices 3/4 are fully isolated.  Any (2, 2)-core
    reduction must peel all of them and remap the block.
    """
    edges = [(v, u) for v in range(3) for u in range(3)]
    edges += [(3, 0), (4, 2)]
    return BipartiteGraph(n_left=6, n_right=5, edges=edges)


# --------------------------------------------------------------------- #
# Bounds
# --------------------------------------------------------------------- #
class TestBounds:
    def test_core_bounds_swap_sides(self):
        # theta_right constrains *left* degrees: a left vertex of a solution
        # must see at least theta_right - k right vertices.
        assert threshold_core_bounds(1, 2, 4) == (3, 1)
        assert threshold_core_bounds(2, 5, 0) == (0, 3)

    def test_core_bounds_clamp_at_zero(self):
        assert threshold_core_bounds(3, 2, 2) == (0, 0)
        assert threshold_core_bounds(0, 0, 0) == (0, 0)

    def test_support_bound_zero_without_both_thresholds(self):
        assert bitruss_support_bound(1, 3, 0) == 0
        assert bitruss_support_bound(1, 0, 3) == 0
        assert bitruss_support_bound(0, 0, 0) == 0

    def test_support_bound_positive_needs_room_beyond_k(self):
        # theta = k + 1 leaves a = b = 0: no butterfly is guaranteed.
        assert bitruss_support_bound(1, 2, 2) == 0
        # theta_L = theta_R = 4, k = 1: a = b = 2, bound = 2 * (2 - 1) = 2.
        assert bitruss_support_bound(1, 4, 4) == 2

    def test_support_bound_asymmetric_takes_best_orientation(self):
        k, tl, tr = 1, 5, 3
        a, b = tl - k - 1, tr - k - 1  # 3, 1
        expected = max(a * (b - k), b * (a - k))
        assert bitruss_support_bound(k, tl, tr) == expected > 0


# --------------------------------------------------------------------- #
# Reduction
# --------------------------------------------------------------------- #
class TestReduction:
    def test_identity_without_thresholds(self):
        graph = paper_example_graph()
        reduction = reduce_for_thresholds(graph, 1)
        assert reduction.is_identity
        assert reduction.graph is graph
        assert (reduction.removed_left, reduction.removed_right) == (0, 0)

    def test_peels_fringe_and_remaps(self):
        reduction = reduce_for_thresholds(graph_with_fringe(), 1, 3, 3)
        assert not reduction.is_identity
        assert reduction.graph.n_left == 3 and reduction.graph.n_right == 3
        assert reduction.left_map == [0, 1, 2]
        assert reduction.right_map == [0, 1, 2]
        assert reduction.removed_left == 3
        assert reduction.removed_right == 2

    def test_reduction_is_a_fixpoint(self):
        """Workers re-run prepare() on the reduced graph: it must not move."""
        for seed in range(6):
            graph = erdos_renyi_bipartite(8, 7, num_edges=20, seed=seed)
            for tl, tr in ((3, 3), (2, 4), (4, 2), (0, 3)):
                reduction = reduce_for_thresholds(graph, 1, tl, tr)
                again = reduce_for_thresholds(reduction.graph, 1, tl, tr)
                assert again.is_identity, (seed, tl, tr)

    @pytest.mark.parametrize("k", (1, 2))
    def test_reduction_preserves_large_solutions(self, k):
        """Oracle check: the reduced graph holds exactly the θ-large MBPs."""
        for seed in range(4):
            graph = erdos_renyi_bipartite(6, 6, num_edges=14, seed=100 + seed)
            reference_all = enumerate_mbps_bruteforce(graph, k)
            for tl, tr in ((2, 2), (3, 2), (1, 4)):
                expected = {
                    s.key() for s in filter_large(reference_all, tl, tr)
                }
                reduction = reduce_for_thresholds(graph, k, tl, tr)
                left_map = reduction.left_map or list(
                    reduction.graph.left_vertices()
                )
                right_map = reduction.right_map or list(
                    reduction.graph.right_vertices()
                )
                got = set()
                for s in enumerate_mbps_bruteforce(reduction.graph, k):
                    if len(s.left) >= tl and len(s.right) >= tr:
                        got.add(
                            (
                                tuple(sorted(left_map[v] for v in s.left)),
                                tuple(sorted(right_map[u] for u in s.right)),
                            )
                        )
                assert got == expected, (seed, k, tl, tr)

    def test_reduction_sound_for_bicliques(self):
        """k = 0 (maximal bicliques, the iMB biclique path) peels safely too."""
        from repro.baselines import enumerate_mbps_imb

        for seed in range(4):
            graph = erdos_renyi_bipartite(6, 6, num_edges=16, seed=200 + seed)
            expected = set(
                enumerate_mbps_imb(graph, 0, theta_left=2, theta_right=2, prep="off")
            )
            got = set(
                enumerate_mbps_imb(graph, 0, theta_left=2, theta_right=2, prep="core")
            )
            assert got == expected, seed

    def test_backend_class_is_preserved(self):
        """The reduced graph is the one substrate again, with exact masks,
        whichever construction route built the input."""
        from repro.graph import iter_bits

        reference = reduce_for_thresholds(graph_with_fringe(), 1, 3, 3)
        for route in ROUTES:
            reduction = reduce_for_thresholds(via(route, graph_with_fringe()), 1, 3, 3)
            reduced = reduction.graph
            assert type(reduced) is BipartiteGraph
            assert reduced == reference.graph
            assert reduced.num_edges < graph_with_fringe().num_edges
            for v in reduced.left_vertices():
                assert set(iter_bits(reduced.adj_left_mask(v))) == reduced.neighbors_of_left(v)
            for u in reduced.right_vertices():
                assert set(iter_bits(reduced.adj_right_mask(u))) == reduced.neighbors_of_right(u)


class TestOnePeel:
    """The reductions peel one mask state and build at most one graph.

    ``BipartiteGraph`` constructions are counted while the reduction runs,
    and ``copy`` / ``remove_edge`` raise: no reduction may build a
    throwaway graph or edit one edge at a time.
    """

    @staticmethod
    def _graphs_built(monkeypatch, run):
        built = []
        init = BipartiteGraph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def forbidden(self, *args, **kwargs):
            raise AssertionError("a reduction copied or edited a graph")

        with monkeypatch.context() as patch:
            patch.setattr(BipartiteGraph, "__init__", counting_init)
            patch.setattr(BipartiteGraph, "copy", forbidden)
            patch.setattr(BipartiteGraph, "remove_edge", forbidden)
            result = run()
        return result, len(built)

    def test_prepare_builds_one_graph_over_two_fixpoint_rounds(self, monkeypatch):
        from repro.graph import alpha_beta_core
        from repro.graph.cores import Peel

        graph = planted_biplex_graph(
            40, 40, block_left=6, block_right=6, k=1, background_edges=240, seed=1
        )
        k, theta = 1, 5
        alpha, beta = threshold_core_bounds(k, theta, theta)
        # One core + bitruss round is not the fixpoint: the bitruss peel
        # drops degrees below the core bounds again.
        core = graph.induced_subgraph(*alpha_beta_core(graph, alpha, beta))
        peel = Peel(core)
        peel.bitruss(bitruss_support_bound(k, theta, theta))
        truss = peel.compact()[0]
        left, right = alpha_beta_core(truss, alpha, beta)
        assert len(left) < core.n_left and len(right) < core.n_right
        plan, built = self._graphs_built(
            monkeypatch, lambda: prepare(graph, k, "core", theta, theta)
        )
        assert built == 1
        assert (plan.graph.n_left, plan.graph.n_right) == (len(left), len(right))
        assert plan.removed_edges == graph.num_edges - plan.graph.num_edges > 0

    def test_bitruss_builds_at_most_one_graph(self, monkeypatch):
        from repro.graph.cores import Peel

        graph = erdos_renyi_bipartite(12, 10, num_edges=60, seed=4)
        peel = Peel(graph)
        # The peel builds nothing; compact builds the one graph.
        _, built = self._graphs_built(monkeypatch, lambda: peel.bitruss(3))
        assert built == 0 and 0 < peel.num_edges < graph.num_edges
        (truss, _, _), built = self._graphs_built(monkeypatch, peel.compact)
        assert built == 1 and truss.num_edges == peel.num_edges


# --------------------------------------------------------------------- #
# Orderings
# --------------------------------------------------------------------- #
class TestOrderings:
    @pytest.mark.parametrize("order", [degeneracy_order], ids=["degeneracy"])
    def test_orders_are_permutations(self, order):
        for seed in range(4):
            graph = erdos_renyi_bipartite(7, 5, num_edges=15, seed=seed)
            left, right = order(graph)
            assert sorted(left) == list(graph.left_vertices())
            assert sorted(right) == list(graph.right_vertices())

    def test_orders_are_deterministic(self):
        graph = erdos_renyi_bipartite(9, 8, num_edges=30, seed=5)
        assert degeneracy_order(graph) == degeneracy_order(graph)

    def test_degeneracy_starts_at_minimum_degree(self):
        graph = graph_with_fringe()
        left, right = degeneracy_order(graph)
        # The isolated vertices peel first on their sides.
        assert left[0] == 5
        assert right[0] == 3


# --------------------------------------------------------------------- #
# Plans, modes, environment
# --------------------------------------------------------------------- #
class TestPlanResolution:
    def test_resolve_prep_passthrough_and_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PREP", raising=False)
        assert resolve_prep(None) == "core"
        assert default_prep() == "core"
        for mode in PREP_MODES:
            assert resolve_prep(mode) == mode

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREP", "core+order")
        assert resolve_prep(None) == "core+order"
        algorithm = ITraversal(paper_example_graph(), 1)
        assert algorithm.prep.mode == "core+order"

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError, match="unknown prep mode"):
            resolve_prep("bogus")
        with pytest.raises(ValueError, match="unknown prep mode"):
            ITraversal(paper_example_graph(), 1, prep="bogus")
        from repro.core.traversal import TraversalConfig

        with pytest.raises(ValueError, match="prep must be one of"):
            TraversalConfig(prep="bogus")

    def test_invalid_env_var_raises_with_its_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREP", "nope")
        with pytest.raises(ValueError, match="REPRO_PREP"):
            default_prep()

    def test_prepare_off_is_bare(self):
        graph = graph_with_fringe()
        plan = prepare(graph, 1, "off", theta_left=3, theta_right=3)
        assert plan.is_identity_map
        assert plan.graph is graph
        assert plan.left_order is None and plan.right_order is None

    def test_core_order_plan_orders_by_degeneracy(self):
        graph = graph_with_fringe()
        plan = prepare(graph, 1, "core+order", theta_left=2, theta_right=2)
        assert plan.removed_left > 0
        assert (plan.left_order, plan.right_order) == degeneracy_order(plan.graph)
        assert prepare(graph, 1, "core").left_order is None


# --------------------------------------------------------------------- #
# Translation through the enumerators
# --------------------------------------------------------------------- #
class TestTranslation:
    @pytest.mark.parametrize("prep", ("core", "core+order"))
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_solutions_come_back_in_original_ids(self, prep, jobs):
        """Round-trip on a graph whose fringe is peeled away.

        The block solution must be reported with the *original* ids even
        though the engine ran on a remapped 3x3 graph.
        """
        graph = graph_with_fringe()
        reference = {
            s.key()
            for s in filter_large(enumerate_mbps_bruteforce(graph, 1), 3, 3)
        }
        algorithm = ITraversal(
            graph, 1, theta_left=3, theta_right=3, prep=prep, jobs=jobs
        )
        got = {s.key() for s in algorithm.enumerate()}
        assert got == reference
        plan = algorithm.prep
        assert plan.removed_left == 3 and plan.removed_right == 2

    def test_translation_on_peeled_isolated_vertices(self):
        """Isolated vertices in the middle of the id range shift the maps."""
        edges = [(0, 0), (0, 2), (2, 0), (2, 2), (0, 3), (2, 3), (3, 0), (3, 2), (3, 3)]
        graph = BipartiteGraph(n_left=4, n_right=4, edges=edges)  # left 1, right 1 isolated
        reference = {
            s.key()
            for s in filter_large(enumerate_mbps_bruteforce(graph, 1), 2, 2)
        }
        algorithm = ITraversal(graph, 1, theta_left=2, theta_right=2, prep="core")
        assert {s.key() for s in algorithm.enumerate()} == reference
        assert not algorithm.prep.is_identity_map

    def test_initial_solution_is_translated(self):
        graph = graph_with_fringe()
        algorithm = ITraversal(graph, 1, theta_left=3, theta_right=3, prep="core")
        initial = algorithm.initial_solution()
        # The fringe right vertices 3/4 were peeled: the anchored initial
        # solution's right side is the reduced block, in original ids.
        assert initial.right <= {0, 1, 2}


# --------------------------------------------------------------------- #
# Golden outputs: prep="off" reproduces the historical traversal exactly
# --------------------------------------------------------------------- #
#: ITraversal k=1 on the paper's example graph, captured before the prep
#: pipeline existed.  ``prep="off"`` (and, without thresholds, the default
#: ``"core"``) must reproduce this list bit for bit — order included — on
#: every construction route.
PAPER_EXAMPLE_GOLDEN_K1 = [
    ((4,), (0, 1, 2, 3, 4)),
    ((0, 1, 4), (0, 1, 2, 3)),
    ((0, 1, 2, 4), (0, 1, 3)),
    ((0, 1, 2, 3, 4), (1, 3)),
    ((1, 2, 4), (0, 1, 2)),
    ((0, 2, 4), (0, 1, 3, 4)),
    ((1, 2, 3, 4), (1, 3, 4)),
    ((0, 2, 3, 4), (1, 3, 4)),
    ((0, 2, 3, 4), (0, 3, 4)),
    ((1, 4), (1, 2, 3, 4)),
    ((1, 2, 4), (1, 2, 4)),
    ((1, 3, 4), (2, 3, 4)),
    ((2, 4), (0, 1, 2, 4)),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("prep", ("off", "core"))
    def test_paper_example_bit_for_bit(self, route, prep):
        # jobs=1 pinned: the golden list is the *serial* DFS order (a
        # REPRO_JOBS=2 environment would switch to sorted parallel output).
        graph = via(route, paper_example_graph())
        keys = [s.key() for s in ITraversal(graph, 1, prep=prep, jobs=1).enumerate()]
        assert keys == PAPER_EXAMPLE_GOLDEN_K1

    def test_off_matches_historical_behaviour_across_backends(self):
        """Same DFS order on every construction route, thresholds on or off."""
        graph = erdos_renyi_bipartite(6, 5, num_edges=14, seed=7)
        for theta in (0, 2):
            runs = [
                [
                    s.key()
                    for s in ITraversal(
                        via(route, graph),
                        1,
                        theta_left=theta,
                        theta_right=theta,
                        prep="off",
                        jobs=1,
                    ).enumerate()
                ]
                for route in ROUTES
            ]
            assert runs[0] == runs[1] == runs[2]
            assert runs[0], f"theta={theta} must produce solutions"
            expected = filter_large(enumerate_mbps_bruteforce(graph, 1), theta, theta)
            assert sorted(runs[0]) == sorted(s.key() for s in expected)


class TestPinnedAblation:
    """Exact output of the prep ablation on three regimes it treats differently.

    A dense paper example (the reduction is a no-op), a sparse thresholded
    random graph (core peeling bites) and a planted near-biclique in sparse
    background (core + bitruss strip almost everything outside the block).
    Each run pins the solution count, a digest of the serial output order
    and the plan's removed vertex and edge counts, so a change that keeps
    the solution set but reorders or re-reduces it still fails.
    """

    GRAPHS = {
        "paper-example": (paper_example_graph, 0),
        "er-sparse": (
            lambda: erdos_renyi_bipartite(40, 30, num_edges=120, seed=20220601),
            3,
        ),
        "planted": (
            lambda: planted_biplex_graph(
                60,
                60,
                block_left=6,
                block_right=6,
                k=1,
                background_edges=90,
                seed=20220602,
            ),
            4,
        ),
    }

    @pytest.mark.parametrize(
        "name, prep, count, digest, removed",
        [
            ("paper-example", "off", 13, "f69684f77da5309b", (0, 0, 0)),
            ("paper-example", "core", 13, "f69684f77da5309b", (0, 0, 0)),
            ("paper-example", "core+order", 13, "4074ac68676234af", (0, 0, 0)),
            ("er-sparse", "off", 178, "aff6ca3d8db84a63", (0, 0, 0)),
            ("er-sparse", "core", 178, "aff6ca3d8db84a63", (8, 2, 9)),
            ("er-sparse", "core+order", 178, "afcc9cb92f21622f", (8, 2, 9)),
            ("planted", "off", 1, "76912d4806348241", (0, 0, 0)),
            ("planted", "core", 1, "76912d4806348241", (54, 54, 90)),
            ("planted", "core+order", 1, "76912d4806348241", (54, 54, 90)),
        ],
    )
    def test_ordered_output_and_plan(self, name, prep, count, digest, removed):
        # jobs pinned: REPRO_JOBS=2 switches to sorted parallel output.
        factory, theta = self.GRAPHS[name]
        algorithm = ITraversal(
            factory(), 1, theta_left=theta, theta_right=theta, prep=prep, jobs=1
        )
        keys = [solution.key() for solution in algorithm.enumerate()]
        hasher = hashlib.sha256()
        for key in keys:
            hasher.update(repr(key).encode())
        assert (len(keys), hasher.hexdigest()[:16]) == (count, digest)
        plan = algorithm.prep
        assert (plan.removed_left, plan.removed_right, plan.removed_edges) == removed


# --------------------------------------------------------------------- #
# Cascade fallback plumbing
# --------------------------------------------------------------------- #
class TestCascadeFallback:
    def test_serial_runs_never_reexplore(self):
        graph = erdos_renyi_bipartite(10, 6, num_edges=28, seed=3)
        algorithm = ITraversal(graph, 1, jobs=1)
        algorithm.enumerate()
        assert algorithm.stats.num_reexplorations == 0

    def test_fallback_rearms_between_shards(self):
        """A shard that trips the fallback must not poison the next shard."""
        from repro.core.traversal import ReverseSearchEngine, TraversalConfig

        graph = erdos_renyi_bipartite(8, 5, num_edges=18, seed=1)
        engine = ReverseSearchEngine(graph, 1, TraversalConfig())
        root = engine._initial_solution()
        anchors = [
            (side, vertex) for side, vertex in engine._candidate_vertices(root)
        ][:2]
        assert len(anchors) == 2
        list(engine.run_shard(root, anchors[0], 0))
        engine._inherit_exclusions = False  # simulate a tripped fallback
        list(engine.run_shard(root, anchors[1], 0))
        assert engine._inherit_exclusions is True

    def test_merged_parallel_counter_is_deterministic(self):
        graph = erdos_renyi_bipartite(14, 4, num_edges=26, seed=2)
        counts = set()
        for _ in range(2):
            algorithm = ITraversal(graph, 1, jobs=2)
            algorithm.enumerate()
            counts.add(
                (algorithm.stats.num_reexplorations, algorithm.stats.num_links)
            )
        assert len(counts) == 1
