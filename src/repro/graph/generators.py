"""Synthetic bipartite graph generators.

The paper evaluates on two kinds of data:

* real KONECT datasets (Table 1), which are not redistributable here and far
  exceed what a pure-Python enumerator can traverse — the dataset registry in
  :mod:`repro.analysis.datasets` builds scaled stand-ins with these
  generators;
* synthetic Erdős–Rényi (ER) bipartite graphs for the scalability study
  (Figure 9), generated exactly as described in Section 6: create the
  vertices, then create a given number of random edges, where *edge density*
  is defined as ``|E| / (|L| + |R|)``.

In addition we provide a planted-biplex generator (useful for tests that
need graphs with known dense structure) and the fraud/camouflage review
graph generator used by the Figure 13 case study.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .bipartite import BipartiteGraph


def erdos_renyi_bipartite(
    n_left: int,
    n_right: int,
    num_edges: Optional[int] = None,
    edge_density: Optional[float] = None,
    seed: Optional[int] = None,
) -> BipartiteGraph:
    """Generate a random bipartite graph with a fixed number of edges.

    Exactly one of ``num_edges`` and ``edge_density`` must be given.  Edge
    density follows the paper's definition ``|E| / (|L| + |R|)``.

    Edges are sampled uniformly at random without replacement from the
    ``n_left * n_right`` possible pairs.  Requests that cannot be satisfied
    — negative counts or densities, or more edges than the ``n_left *
    n_right`` pairs can hold — raise :class:`ValueError` instead of looping
    or silently returning a smaller graph.  Given the same arguments and
    ``seed``, the generated edge set is identical on every platform
    (``random.Random`` is a portable, versioned generator).
    """
    if (num_edges is None) == (edge_density is None):
        raise ValueError("specify exactly one of num_edges or edge_density")
    if edge_density is not None:
        if edge_density < 0:
            raise ValueError(f"edge_density must be non-negative, got {edge_density}")
        num_edges = int(round(edge_density * (n_left + n_right)))
    assert num_edges is not None
    if num_edges < 0:
        raise ValueError(f"num_edges must be non-negative, got {num_edges}")
    max_edges = n_left * n_right
    if num_edges > max_edges:
        raise ValueError(f"cannot place {num_edges} edges in a {n_left}x{n_right} bipartite graph")
    rng = random.Random(seed)
    graph = BipartiteGraph(n_left, n_right)
    if num_edges > max_edges // 2:
        # Dense regime: sample the complement instead to avoid long rejection loops.
        all_pairs = [(v, u) for v in range(n_left) for u in range(n_right)]
        rng.shuffle(all_pairs)
        for v, u in all_pairs[:num_edges]:
            graph.add_edge(v, u)
        graph.reset_epoch()
        return graph
    placed = 0
    while placed < num_edges:
        v = rng.randrange(n_left)
        u = rng.randrange(n_right)
        if graph.add_edge(v, u):
            placed += 1
    graph.reset_epoch()
    return graph


def power_law_bipartite(
    n_left: int,
    n_right: int,
    num_edges: int,
    exponent: float = 2.0,
    seed: Optional[int] = None,
) -> BipartiteGraph:
    """Generate a bipartite graph with heavy-tailed degree distributions.

    Real bipartite networks (authorship, affiliation, review graphs) have
    skewed degrees; the dataset stand-ins use this generator so that the
    enumeration algorithms see realistic hub structure.  Endpoints of each
    edge are drawn from a discrete power-law weight vector on each side.
    Impossible requests (negative counts, more edges than ``n_left *
    n_right``) raise :class:`ValueError` rather than silently producing a
    smaller graph.
    """
    if num_edges < 0:
        raise ValueError(f"num_edges must be non-negative, got {num_edges}")
    max_edges = n_left * n_right
    if num_edges > max_edges:
        raise ValueError(f"cannot place {num_edges} edges in a {n_left}x{n_right} bipartite graph")
    rng = random.Random(seed)
    left_weights = [1.0 / (i + 1) ** exponent for i in range(n_left)]
    right_weights = [1.0 / (i + 1) ** exponent for i in range(n_right)]
    graph = BipartiteGraph(n_left, n_right)
    target = num_edges
    attempts = 0
    max_attempts = 50 * target + 1000
    while graph.num_edges < target and attempts < max_attempts:
        attempts += 1
        v = rng.choices(range(n_left), weights=left_weights, k=1)[0]
        u = rng.choices(range(n_right), weights=right_weights, k=1)[0]
        graph.add_edge(v, u)
    # Top up with uniform edges if the skewed sampling saturated hubs.
    while graph.num_edges < target:
        v = rng.randrange(n_left)
        u = rng.randrange(n_right)
        graph.add_edge(v, u)
    graph.reset_epoch()
    return graph


def planted_biplex_graph(
    n_left: int,
    n_right: int,
    block_left: int,
    block_right: int,
    k: int,
    background_edges: int = 0,
    num_blocks: int = 1,
    seed: Optional[int] = None,
) -> BipartiteGraph:
    """Generate a sparse background graph with planted near-complete blocks.

    Each planted block spans ``block_left`` left vertices and ``block_right``
    right vertices and is complete except that every block vertex drops at
    most ``k`` of its cross edges, so the block is guaranteed to be a
    k-biplex (usually close to a biclique).  Planted blocks are disjoint.

    Returns the graph only; use :func:`planted_biplex_graph_with_blocks` to
    also retrieve the planted vertex sets.
    """
    graph, _ = planted_biplex_graph_with_blocks(
        n_left,
        n_right,
        block_left,
        block_right,
        k,
        background_edges=background_edges,
        num_blocks=num_blocks,
        seed=seed,
    )
    return graph


def planted_biplex_graph_with_blocks(
    n_left: int,
    n_right: int,
    block_left: int,
    block_right: int,
    k: int,
    background_edges: int = 0,
    num_blocks: int = 1,
    seed: Optional[int] = None,
) -> Tuple[BipartiteGraph, List[Tuple[Set[int], Set[int]]]]:
    """Like :func:`planted_biplex_graph` but also returns the planted blocks.

    ``background_edges`` must be non-negative and at most ``n_left *
    n_right`` (the absolute pair capacity); within that, the filled count
    is additionally capped by the pairs the randomly-built blocks leave
    free, which the caller cannot know in advance.
    """
    if num_blocks * block_left > n_left or num_blocks * block_right > n_right:
        raise ValueError("planted blocks do not fit in the requested graph")
    if background_edges < 0:
        raise ValueError(f"background_edges must be non-negative, got {background_edges}")
    if background_edges > n_left * n_right:
        raise ValueError(
            f"cannot place {background_edges} background edges in a "
            f"{n_left}x{n_right} bipartite graph"
        )
    rng = random.Random(seed)
    graph = BipartiteGraph(n_left, n_right)
    blocks: List[Tuple[Set[int], Set[int]]] = []
    for b in range(num_blocks):
        left_block = set(range(b * block_left, (b + 1) * block_left))
        right_block = set(range(b * block_right, (b + 1) * block_right))
        blocks.append((left_block, right_block))
        for v in left_block:
            # Drop up to k right vertices from v's block neighbourhood.
            drop_count = rng.randint(0, min(k, block_right - 1))
            dropped = set(rng.sample(sorted(right_block), drop_count)) if drop_count else set()
            for u in right_block:
                if u not in dropped:
                    graph.add_edge(v, u)
    placed = 0
    max_background = n_left * n_right - graph.num_edges
    target = min(background_edges, max_background)
    while placed < target:
        v = rng.randrange(n_left)
        u = rng.randrange(n_right)
        if graph.add_edge(v, u):
            placed += 1
    graph.reset_epoch()
    return graph, blocks


@dataclass(frozen=True)
class FraudInjection:
    """Ground truth of a camouflage-attack injection.

    Attributes
    ----------
    fake_users:
        Left-side ids of the injected fake users.
    fake_products:
        Right-side ids of the injected fake products.
    """

    fake_users: Set[int]
    fake_products: Set[int]


def review_graph_with_camouflage(
    n_real_users: int,
    n_real_products: int,
    n_real_reviews: int,
    n_fake_users: int,
    n_fake_products: int,
    n_fake_reviews: int,
    n_camouflage_reviews: int,
    seed: Optional[int] = None,
) -> Tuple[BipartiteGraph, FraudInjection]:
    """Build the Figure 13 case-study graph: real reviews + a fraud block.

    The construction mirrors the paper's *random camouflage attack*: a fraud
    block of ``n_fake_users`` users and ``n_fake_products`` products is
    injected into a real review graph; ``n_fake_reviews`` edges are placed
    uniformly between fake users and fake products, and
    ``n_camouflage_reviews`` edges between fake users and *real* products so
    that every fake user has (approximately) the same number of fake and
    camouflage reviews.

    The paper uses the Amazon software-review data (375 k users, 21 k
    products, 459 k reviews) with a 2 k × 2 k fraud block and 200 k + 200 k
    injected comments.  The caller picks scaled-down sizes; the *ratio*
    between fake and camouflage reviews per fake user (1:1) and the uniform
    randomness of the attack are what matter for the precision/recall
    comparison, and both are preserved here.

    Returns
    -------
    (graph, injection):
        ``graph`` has ``n_real_users + n_fake_users`` left vertices (fake
        users occupy the trailing id range) and similarly for products;
        ``injection`` records the ground-truth fake vertex sets.

    Raises
    ------
    ValueError
        If any size or review count is negative, or a review count exceeds
        the pair capacity of its block (real×real, fake×fake or
        fake-users×real-products).  Within capacity the skewed/balanced
        placement is best-effort: heavily saturated blocks may end up with
        slightly fewer edges than requested.
    """
    for name, value in (
        ("n_real_users", n_real_users),
        ("n_real_products", n_real_products),
        ("n_real_reviews", n_real_reviews),
        ("n_fake_users", n_fake_users),
        ("n_fake_products", n_fake_products),
        ("n_fake_reviews", n_fake_reviews),
        ("n_camouflage_reviews", n_camouflage_reviews),
    ):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    for name, count, capacity in (
        ("n_real_reviews", n_real_reviews, n_real_users * n_real_products),
        ("n_fake_reviews", n_fake_reviews, n_fake_users * n_fake_products),
        ("n_camouflage_reviews", n_camouflage_reviews, n_fake_users * n_real_products),
    ):
        if count > capacity:
            raise ValueError(
                f"cannot place {count} {name} edges in a block with {capacity} pairs"
            )
    rng = random.Random(seed)
    n_users = n_real_users + n_fake_users
    n_products = n_real_products + n_fake_products
    graph = BipartiteGraph(n_users, n_products)

    # Real reviews: skewed towards popular products, as in real review data.
    product_weights = [1.0 / (i + 1) for i in range(n_real_products)]
    placed = 0
    max_real = n_real_users * n_real_products
    target_real = min(n_real_reviews, max_real)
    while placed < target_real:
        user = rng.randrange(n_real_users)
        product = rng.choices(range(n_real_products), weights=product_weights, k=1)[0]
        if graph.add_edge(user, product):
            placed += 1

    fake_users = set(range(n_real_users, n_users))
    fake_products = set(range(n_real_products, n_products))

    # Fake reviews: uniform between fake users and fake products, spread so
    # that every fake user receives roughly the same number.
    _place_uniform_edges(
        graph,
        rng,
        sorted(fake_users),
        sorted(fake_products),
        n_fake_reviews,
    )
    # Camouflage reviews: fake users -> real products.
    _place_uniform_edges(
        graph,
        rng,
        sorted(fake_users),
        list(range(n_real_products)),
        n_camouflage_reviews,
    )
    graph.reset_epoch()
    return graph, FraudInjection(fake_users=fake_users, fake_products=fake_products)


def _place_uniform_edges(
    graph: BipartiteGraph,
    rng: random.Random,
    left_pool: Sequence[int],
    right_pool: Sequence[int],
    count: int,
) -> None:
    """Place ``count`` random edges between the two pools, balanced per left vertex."""
    if not left_pool or not right_pool:
        return
    per_left = count // len(left_pool)
    remainder = count % len(left_pool)
    for index, left_vertex in enumerate(left_pool):
        quota = per_left + (1 if index < remainder else 0)
        quota = min(quota, len(right_pool))
        placed = 0
        attempts = 0
        while placed < quota and attempts < 20 * quota + 50:
            attempts += 1
            right_vertex = right_pool[rng.randrange(len(right_pool))]
            if graph.add_edge(left_vertex, right_vertex):
                placed += 1
