"""The seeded random graphs and the construction-route matrix shared by the
differential, equivalence and property tests.

Lives in its own module (not ``conftest``) so test files can import it
without colliding with the benchmarks' ``conftest`` when pytest collects
both directories in one run.
"""

import random

from repro.graph import BipartiteGraph

#: The construction-route matrix.  There is one adjacency substrate,
#: :class:`~repro.graph.BipartiteGraph`, whose sets and masks every
#: mutation keeps in lockstep; what still differs between two equal graphs
#: is the code that filled them.  The cross-checked suites run each case on
#: a graph reached by every route (see :func:`via`):
#:
#: ``"set"``     rebuilt from an empty graph one ``add_edge`` at a time, in
#:               shuffled order, each side grown by ``add_*_vertex`` only
#:               when an edge first needs the id;
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
        built = BipartiteGraph(0, 0)
        random.Random(len(edges)).shuffle(edges)
        for v, u in edges:
            while built.n_left <= v:
                built.add_left_vertex()
            while built.n_right <= u:
                built.add_right_vertex()
            built.add_edge(v, u)
        while built.n_left < n_left:
            built.add_left_vertex()
        while built.n_right < n_right:
            built.add_right_vertex()
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
