"""The seeded random graphs and the construction-route matrix shared by the
differential, equivalence and property tests.

Lives in its own module (not ``conftest``) so test files can import it
without colliding with the benchmarks' ``conftest`` when pytest collects
both directories in one run.
"""

import random

from repro.graph import BipartiteGraph, Graph, mask_of

#: The construction-route matrix.  There is one adjacency substrate,
#: :class:`~repro.graph.BipartiteGraph`, whose per-vertex masks are its only
#: adjacency store; what still differs between two equal graphs is the code
#: that filled them.  The cross-checked suites run each case on a graph
#: reached by every route (see :func:`via`):
#:
#: ``"set"``     built edgeless on the final side sizes, then filled one
#:               ``add_edge`` at a time, in shuffled order;
#: ``"bitset"``  the graph as its constructor built it;
#: ``"packed"``  reached from a denser graph by one ``apply_batch`` that
#:               inserts the missing edges and deletes the surplus ones.
#:
#: The names are the ids these suites carried when they compared the set,
#: bitset and packed substrates; keeping them keeps the test ids stable.
ROUTES = ("set", "bitset", "packed")


def via(route: str, graph: BipartiteGraph) -> BipartiteGraph:
    """A fresh graph (epoch 0) with ``graph``'s edges, built by ``route``."""
    n_left, n_right = graph.n_left, graph.n_right
    edges = sorted(graph.edges())
    if route == "bitset":
        built = BipartiteGraph(n_left, n_right, edges)
    elif route == "set":
        built = BipartiteGraph(n_left, n_right)
        random.Random(len(edges)).shuffle(edges)
        for v, u in edges:
            built.add_edge(v, u)
    elif route == "packed":
        surplus = [
            (v, u) for v in range(n_left) for u in range(n_right) if not graph.has_edge(v, u)
        ]
        built = BipartiteGraph(n_left, n_right, surplus + edges[::2])
        built.apply_batch(inserts=edges[1::2], deletes=surplus)
    else:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    built.reset_epoch()
    return built


#: The edges of the paper's Figure 1 graph, as ``paper_example_graph``
#: builds it: the reference edge set its masks are checked against.
PAPER_EDGES = frozenset(
    [(0, 0), (0, 1), (0, 3), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 4)]
    + [(3, 3), (3, 4), (4, 0), (4, 1), (4, 2), (4, 3), (4, 4)]
)


def swapped(edges):
    """The reference edge set of the side-swapped graph."""
    return {(u, v) for v, u in edges}


def induced(edges, left_ids, right_ids):
    """The reference edge set of ``induced_subgraph(left_ids, right_ids)``."""
    left_index = {v: i for i, v in enumerate(sorted(set(left_ids)))}
    right_index = {u: i for i, u in enumerate(sorted(set(right_ids)))}
    return {
        (left_index[v], right_index[u])
        for v, u in edges
        if v in left_index and u in right_index
    }


def assert_masks_match_edges(graph, edges) -> None:
    """Both mask directions of ``graph`` hold exactly the reference ``edges``.

    ``edges`` is the edge set a test keeps next to the graph, through the
    same mutations: ``(left, right)`` pairs for a bipartite graph or view,
    ``(u, v)`` pairs in either order for a :class:`~repro.graph.Graph`.  The
    edge count and the neighbour sets built at the API edge must agree too.
    """
    if isinstance(graph, Graph):
        adjacency = {u: set() for u in graph.vertices()}
        for u, v in edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        for u, expected in adjacency.items():
            assert graph.adj_mask(u) == mask_of(expected), u
            assert graph.neighbors(u) == expected, u
        assert 2 * graph.num_edges == sum(map(len, adjacency.values()))
        return
    left = {v: set() for v in graph.left_vertices()}
    right = {u: set() for u in graph.right_vertices()}
    for v, u in edges:
        left[v].add(u)
        right[u].add(v)
    for v, expected in left.items():
        assert graph.adj_left_mask(v) == mask_of(expected), ("left", v)
        assert graph.neighbors_of_left(v) == expected, ("left", v)
    for u, expected in right.items():
        assert graph.adj_right_mask(u) == mask_of(expected), ("right", u)
        assert graph.neighbors_of_right(u) == expected, ("right", u)
    assert graph.num_edges == len(set(edges))


def random_graphs(count: int, max_side: int = 6, seed: int = 0):
    """A deterministic collection of small random graphs for exhaustive checks."""
    from repro.graph import erdos_renyi_bipartite

    graphs = []
    rng = random.Random(seed)
    for index in range(count):
        n_left = rng.randint(2, max_side)
        n_right = rng.randint(2, max_side)
        num_edges = rng.randint(1, n_left * n_right)
        graphs.append(
            erdos_renyi_bipartite(
                n_left, n_right, num_edges=num_edges, seed=seed * 1000 + index
            )
        )
    return graphs
