"""What the packed-substrate suite pinned that still holds with one substrate.

The numpy and ``array('Q')`` packed graphs are gone.  Their row/mask
lock-step, popcount, common-neighbour and multi-word contracts now bind the
per-vertex masks of :class:`~repro.graph.BipartiteGraph` and
:class:`~repro.graph.Graph`, checked against reference edge sets and across
the construction routes of ``graph_samples.ROUTES``.  The numpy-absent
contract now binds the whole package: nothing in it needs numpy.
"""

import sys

import pytest

from graph_samples import PAPER_EDGES, ROUTES, assert_masks_match_edges, induced, swapped, via

from repro.baselines import enumerate_mbps_bruteforce, enumerate_mbps_imb
from repro.graph import BipartiteGraph, erdos_renyi_bipartite, iter_bits, mask_of
from repro.graph.general import Graph

#: More than 64 vertices on both sides: every mask spans several words.
WIDE = erdos_renyi_bipartite(70, 130, num_edges=700, seed=9)
#: WIDE's edges as the generator left them: the reference for every graph
#: derived from it.
WIDE_EDGES = frozenset(WIDE.edges())


def _common_neighbors(graph, side):
    """All-pairs common-neighbour counts from the masks of ``side``."""
    if side == "left":
        masks = [graph.adj_left_mask(v) for v in graph.left_vertices()]
    else:
        masks = [graph.adj_right_mask(u) for u in graph.right_vertices()]
    return [[(a & b).bit_count() for b in masks] for a in masks]


class TestPackedBipartiteGraph:
    def test_rows_match_masks_and_sets(self, example_graph):
        for route in ROUTES:
            for source, edges in ((example_graph, PAPER_EDGES), (WIDE, WIDE_EDGES)):
                graph = via(route, source)
                assert_masks_match_edges(graph, edges)
                assert [graph.adj_left_mask(v).bit_count() for v in graph.left_vertices()] == [
                    graph.degree_of_left(v) for v in graph.left_vertices()
                ]

    def test_mutation_keeps_rows_in_lockstep(self):
        graph = BipartiteGraph(70, 130)  # multi-word masks on both sides
        assert graph.add_edge(3, 100) is True
        assert graph.add_edge(3, 100) is False
        assert graph.adj_left_mask(3) == 1 << 100
        assert graph.adj_right_mask(100) == 1 << 3
        assert graph.neighbors_of_left(3) == {100}
        assert graph.remove_edge(3, 100) is True
        assert not any(graph.adj_left_mask(v) for v in graph.left_vertices())
        assert not any(graph.adj_right_mask(u) for u in graph.right_vertices())
        assert graph.neighbors_of_left(3) == set() and graph.num_edges == 0

    def test_popcount_rows(self, example_graph):
        for graph in (example_graph, WIDE):
            subset = set(range(0, graph.n_right, 2))
            mask = mask_of(subset)
            for v in graph.left_vertices():
                restricted = (graph.adj_left_mask(v) & mask).bit_count()
                assert restricted == len(graph.neighbors_of_left(v) & subset)
                assert restricted == len(graph.gamma_left(v, subset))
                assert graph.missing_left(v, subset) == len(subset) - restricted

    def test_common_neighbors_matrix(self, example_graph):
        common = _common_neighbors(example_graph, "left")
        for v1 in example_graph.left_vertices():
            for v2 in example_graph.left_vertices():
                expected = len(
                    example_graph.neighbors_of_left(v1) & example_graph.neighbors_of_left(v2)
                )
                assert common[v1][v2] == expected

    def test_derived_graphs_stay_packed(self, example_graph):
        graph = via("packed", example_graph)
        assert graph.copy() == example_graph
        assert graph.swap_sides() == example_graph.swap_sides()
        assert graph.induced_subgraph([0, 4], [0, 1]) == example_graph.induced_subgraph(
            [0, 4], [0, 1]
        )
        for derived, edges in (
            (graph.copy(), PAPER_EDGES),
            (graph.swap_sides(), swapped(PAPER_EDGES)),
            (graph.induced_subgraph([0, 4], [0, 1]), induced(PAPER_EDGES, [0, 4], [0, 1])),
            (
                WIDE.induced_subgraph(range(3, 70, 2), range(1, 130, 3)),
                induced(WIDE_EDGES, range(3, 70, 2), range(1, 130, 3)),
            ),
        ):
            assert_masks_match_edges(derived, edges)

    def test_conversions(self, example_graph):
        """The forms a graph can still be turned into keep its masks exact."""
        from repro.graph.protocol import as_backend, default_backend

        assert default_backend() == "bitset"
        for name in ("set", "bitset", "packed"):
            assert as_backend(WIDE, name) is WIDE
        side_swapped = WIDE.swap_sides()
        assert_masks_match_edges(side_swapped, swapped(WIDE_EDGES))
        assert side_swapped.swap_sides() == WIDE

    def test_pack_helpers_roundtrip(self):
        import random

        mask = (1 << 100) | (1 << 63) | 1
        assert mask_of([0, 63, 100]) == mask
        assert mask_of([100, 0, 63, 0]) == mask
        assert list(iter_bits(mask)) == [0, 63, 100]
        rng = random.Random(5)
        for _ in range(50):
            value = rng.getrandbits(130)
            assert mask_of(iter_bits(value)) == value


class TestPackedGeneralGraph:
    def test_rows_and_popcounts(self):
        graph = Graph(70, edges=[(0, 1), (1, 69), (0, 69)])
        assert graph.adj_mask(1) == 1 | (1 << 69)
        assert graph.adj_mask(69) == 0b11
        assert [graph.adj_mask(u).bit_count() for u in graph.vertices()] == [
            graph.degree(u) for u in graph.vertices()
        ]
        assert [(graph.adj_mask(u) & 0b10).bit_count() for u in graph.vertices()] == [
            len(graph.neighbors(u) & {1}) for u in graph.vertices()
        ]
        assert graph.full_mask == (1 << 70) - 1

    def test_kplex_enumeration_on_packed_inflation(self, tiny_graph):
        from repro.baselines import enumerate_mbps_inflation

        expected = set(enumerate_mbps_bruteforce(tiny_graph, 1))
        for route in ROUTES:
            assert set(enumerate_mbps_inflation(via(route, tiny_graph), 1)) == expected


class TestPackedEndToEnd:
    def test_imb_and_quasi_biclique_on_packed(self, example_graph):
        from repro.baselines import find_quasi_bicliques_greedy, is_quasi_biclique

        graph = via("packed", example_graph)
        assert set(enumerate_mbps_imb(graph, 1)) == set(
            enumerate_mbps_bruteforce(example_graph, 1)
        )
        found = find_quasi_bicliques_greedy(graph, 0.25, 2, 2)
        assert set(found) == set(find_quasi_bicliques_greedy(example_graph, 0.25, 2, 2))
        for structure in found:
            assert is_quasi_biclique(example_graph, structure.left, structure.right, 0.25)

    def test_large_mbp_enumerator_on_packed(self):
        from repro.core import ITraversal, filter_large

        graph = erdos_renyi_bipartite(12, 12, num_edges=70, seed=4)
        # iMB is a different algorithm; the filtered full answer is the oracle.
        expected = set(filter_large(enumerate_mbps_imb(graph, 1), 3, 3))
        enumerator = ITraversal(via("packed", graph), 1, theta_left=3, theta_right=3)
        # The reference: the core the same reduction leaves of the
        # constructor-built graph.
        core_edges = set(ITraversal(graph, 1, theta_left=3, theta_right=3).prep.graph.edges())
        assert_masks_match_edges(enumerator.prep.graph, core_edges)
        assert set(enumerator.enumerate()) == expected

    def test_cli_backend_packed(self, tmp_path, capsys, example_graph):
        """Both CLI entry points that took ``--backend`` now reject it."""
        from repro.cli import main
        from repro.graph import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(example_graph, path)
        for argv in (
            ["enumerate", "--input", str(path), "--backend", "packed", "--quiet"],
            ["query", "run", "--input", str(path), "--backend", "packed"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--backend" in capsys.readouterr().err


class TestArrayFallbackParity:
    """The same adjacency reached by every construction route has
    bit-identical masks, popcounts and common-neighbour counts, including
    multi-word masks beyond 64 vertices."""

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_and_popcounts_bit_identical(self, seed):
        base = erdos_renyi_bipartite(70, 130, num_edges=500 + 40 * seed, seed=seed)
        every_third = mask_of(range(0, 130, 3))
        for route in ROUTES:
            graph = via(route, base)
            assert [graph.adj_left_mask(v) for v in graph.left_vertices()] == [
                base.adj_left_mask(v) for v in base.left_vertices()
            ]
            assert [graph.adj_right_mask(u) for u in graph.right_vertices()] == [
                base.adj_right_mask(u) for u in base.right_vertices()
            ]
            for v in graph.left_vertices():
                assert (graph.adj_left_mask(v) & every_third).bit_count() == len(
                    graph.neighbors_of_left(v) & set(range(0, 130, 3))
                )

    def test_common_neighbors_matrix_bit_identical(self, example_graph):
        for side in ("left", "right"):
            expected = _common_neighbors(example_graph, side)
            for route in ROUTES:
                assert _common_neighbors(via(route, example_graph), side) == expected
        common = expected
        for u1 in example_graph.right_vertices():
            for u2 in example_graph.right_vertices():
                assert common[u1][u2] == len(
                    example_graph.neighbors_of_right(u1) & example_graph.neighbors_of_right(u2)
                )

    def test_fallback_general_graph(self):
        edges = [(0, 1), (1, 69), (0, 69), (5, 68), (68, 2)]
        built = Graph(70, edges=edges)
        grown = Graph(70)
        for u, v in reversed(edges):
            grown.add_edge(v, u)
        assert [grown.adj_mask(u) for u in grown.vertices()] == [
            built.adj_mask(u) for u in built.vertices()
        ]
        assert [built.adj_mask(u).bit_count() for u in built.vertices()] == [
            built.degree(u) for u in built.vertices()
        ]


class TestNumpyAbsentFallback:
    """The contract when numpy is missing: nothing changes, because no code
    path of the package imports it."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        # A ``None`` entry makes every later ``import numpy`` fail.
        monkeypatch.setitem(sys.modules, "numpy", None)

    def test_packed_available_reports_false(self, no_numpy):
        """numpy is unavailable, and every module of the package imports."""
        import subprocess

        with pytest.raises(ImportError):
            import numpy  # noqa: F401
        script = (
            "import sys; sys.modules['numpy'] = None\n"
            "import importlib, pkgutil, repro\n"
            "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(module.name)\n"
        )
        import repro

        source_root = repro.__path__[0].rsplit("repro", 1)[0]
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": source_root, "PATH": ""},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_conversions_select_the_fallback(self, no_numpy, example_graph, tiny_graph):
        """The conversions left need no numpy: every legacy substrate name
        resolves to the graph itself, and inflation yields a masked Graph."""
        from repro.graph import inflate
        from repro.graph.protocol import as_backend

        for name in ("set", "bitset", "packed"):
            assert as_backend(example_graph, name) is example_graph
        inflated = inflate(tiny_graph)
        assert isinstance(inflated, Graph)
        for u in inflated.vertices():
            assert inflated.adj_mask(u) == mask_of(inflated.neighbors(u))

    def test_enumeration_works_on_the_fallback(self, no_numpy, example_graph):
        from repro.core import BTraversal, ITraversal, filter_large

        expected = set(enumerate_mbps_bruteforce(example_graph, 1))
        assert set(ITraversal(example_graph, 1).enumerate()) == expected
        assert set(BTraversal(example_graph, 1).enumerate()) == expected
        assert set(enumerate_mbps_imb(example_graph, 1)) == expected
        large = ITraversal(example_graph, 1, theta_left=2, theta_right=2).enumerate()
        assert set(large) == set(filter_large(list(expected), 2, 2))

    def test_butterfly_and_cores_work_on_the_fallback(self, no_numpy, example_graph):
        from repro.graph.cores import Peel, alpha_beta_core
        from repro.prep import prepare

        graph = example_graph
        supports = Peel(graph).supports()
        for v, u in graph.edges():
            assert supports[(v, u)] == sum(
                1
                for v2 in graph.neighbors_of_right(u) - {v}
                for u2 in graph.neighbors_of_left(v) - {u}
                if graph.has_edge(v2, u2)
            )
        peel = Peel(graph)
        peel.bitruss(1)
        truss = peel.compact()[0]
        assert all(count >= 1 for count in Peel(truss).supports().values())
        left, right = alpha_beta_core(graph, 2, 2)
        assert all(len(graph.neighbors_of_left(v) & right) >= 2 for v in left)
        assert all(len(graph.neighbors_of_right(u) & left) >= 2 for u in right)
        assert prepare(graph, 1, theta_left=2, theta_right=2).graph.num_edges <= graph.num_edges

    def test_cli_backend_packed_succeeds(self, no_numpy, tmp_path, capsys, example_graph):
        """The CLI run that once fell back from ``--backend packed`` when
        numpy was missing is now the only path, and it needs no numpy."""
        from repro.cli import main
        from repro.graph import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(example_graph, path)
        assert main(["enumerate", "--input", str(path), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert f"solutions={len(enumerate_mbps_bruteforce(example_graph, 1))} " in out


def test_example_graph_has_edges(example_graph):
    assert isinstance(example_graph, BipartiteGraph) and example_graph.num_edges > 0
