"""Differential tests for mutable-graph epochs.

Two differential contracts, each checked under seeded random
insert/delete sequences:

* **substrates** — after any mutation sequence, the adjacency (sets and
  masks) equals a graph rebuilt from scratch, and enumeration (all three modes)
  on the mutated object equals enumeration on the rebuild, whichever
  construction route (``graph_samples.ROUTES``) built the starting graph;
* **plans and cursors** — ``reprepare`` is content-identical to a
  from-scratch ``prepare`` on the mutated graph, and a cursor minted
  before an update is rejected as stale *exactly* when the epoch moved.

Plus the service/HTTP satellites that ride on the epoch machinery:
update-route validation, epoch-keyed cache invalidation with plan repair,
the 404s for unknown sessions, and the token-bucket rate limiter.
"""

from __future__ import annotations

import random

import pytest
from graph_samples import ROUTES, random_graphs, via

from repro.core import StaleCursorError
from repro.core.itraversal import ITraversal, enumerate_mbps
from repro.graph import BipartiteGraph
from repro.prep import prepare, reprepare
from repro.service import (
    QueryError,
    QueryService,
    RateLimiter,
    ServiceStaleCursorError,
    limiter_from_env,
)

GRAPHS = random_graphs(4, max_side=5, seed=101)


def mutation_script(graph, steps, seed):
    """A seeded insert/delete schedule over ``graph``'s vertex space.

    Yields ``(inserts, deletes)`` batches mixing edges that exist, edges
    that don't (noops for the other operation) and repeats.
    """
    rng = random.Random(seed)
    all_pairs = [
        (v, u) for v in range(graph.n_left) for u in range(graph.n_right)
    ]
    batches = []
    for _ in range(steps):
        inserts = [rng.choice(all_pairs) for _ in range(rng.randint(0, 3))]
        deletes = [rng.choice(all_pairs) for _ in range(rng.randint(0, 3))]
        batches.append((inserts, deletes))
    return batches


def apply_script(graph, batches):
    for inserts, deletes in batches:
        graph.apply_batch(inserts=inserts, deletes=deletes)


def rebuilt(graph):
    """A fresh graph with the mutated graph's exact edges."""
    return BipartiteGraph(graph.n_left, graph.n_right, sorted(graph.edges()))


# --------------------------------------------------------------------- #
# Epoch semantics
# --------------------------------------------------------------------- #
class TestEpochSemantics:
    @pytest.mark.parametrize("route", ROUTES)
    def test_epoch_counts_effective_mutations_only(self, route):
        graph = via(route, BipartiteGraph(3, 3, [(0, 0), (1, 1)]))
        assert graph.epoch == 0
        assert graph.add_edge(0, 1) is True
        assert graph.epoch == 1
        assert graph.add_edge(0, 1) is False  # already present: no bump
        assert graph.epoch == 1
        assert graph.remove_edge(2, 2) is False  # absent: no bump
        assert graph.epoch == 1
        assert graph.remove_edge(0, 1) is True
        assert graph.epoch == 2

    @pytest.mark.parametrize("route", ROUTES)
    def test_apply_batch_bumps_once_and_reports_effects(self, route):
        graph = via(route, BipartiteGraph(3, 3, [(0, 0), (1, 1)]))
        added, removed = graph.apply_batch(
            inserts=[(0, 1), (0, 1), (0, 0)], deletes=[(1, 1), (2, 2)]
        )
        assert (added, removed) == (1, 1)
        assert graph.epoch == 1
        # A batch of pure noops must not bump.
        assert graph.apply_batch(inserts=[(0, 0)], deletes=[(2, 2)]) == (0, 0)
        assert graph.epoch == 1

    def test_copies_restart_at_epoch_zero(self):
        graph = BipartiteGraph(2, 2, [(0, 0)])
        graph.add_edge(1, 1)
        assert graph.epoch == 1
        assert graph.copy().epoch == 0


# --------------------------------------------------------------------- #
# Substrate differential: mutated object == rebuilt graph
# --------------------------------------------------------------------- #
class TestMutationDifferential:
    @pytest.mark.parametrize("route", ROUTES)
    def test_adjacency_equals_rebuild_after_random_script(self, route):
        for index, base in enumerate(GRAPHS):
            graph = via(route, base)
            apply_script(graph, mutation_script(graph, steps=6, seed=index))
            reference = rebuilt(graph)
            assert sorted(graph.edges()) == sorted(reference.edges())
            for v in range(graph.n_left):
                assert set(graph.neighbors_of_left(v)) == set(
                    reference.neighbors_of_left(v)
                )
            for u in range(graph.n_right):
                assert set(graph.neighbors_of_right(u)) == set(
                    reference.neighbors_of_right(u)
                )
                assert graph.adj_right_mask(u) == reference.adj_right_mask(u)
            for v in range(graph.n_left):
                assert graph.adj_left_mask(v) == reference.adj_left_mask(v)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("k", (1, 2))
    def test_enumeration_after_updates_equals_rebuild(self, k, route):
        for index, base in enumerate(GRAPHS):
            graph = via(route, base)
            apply_script(graph, mutation_script(graph, steps=6, seed=17 + index))
            mutated = ITraversal(graph, k).enumerate()
            reference = ITraversal(rebuilt(graph), k).enumerate()
            assert sorted(mutated) == sorted(reference), f"{route} k={k} g{index}"

    @pytest.mark.parametrize("route", ROUTES)
    def test_solver_modes_after_updates_equal_rebuild(self, route):
        for index, base in enumerate(GRAPHS):
            graph = via(route, base)
            apply_script(graph, mutation_script(graph, steps=5, seed=31 + index))
            reference = rebuilt(graph)
            for mode, extra in (("maximum", {}), ("top-k", {"top": 3})):
                got, _ = enumerate_mbps(graph, 1, mode=mode, **extra)
                want, _ = enumerate_mbps(reference, 1, mode=mode, **extra)
                assert got == want, f"{route} {mode} g{index}"


# --------------------------------------------------------------------- #
# Plan repair: reprepare == prepare from scratch
# --------------------------------------------------------------------- #
class TestReprepare:
    @staticmethod
    def _plan_content(plan):
        graph = plan.graph
        return (
            plan.mode,
            graph.n_left,
            graph.n_right,
            sorted(graph.edges()),
            plan.left_map,
            plan.right_map,
            plan.left_order,
            plan.right_order,
            plan.removed_left,
            plan.removed_right,
            plan.removed_edges,
            plan.epoch,
        )

    @pytest.mark.parametrize("mode", ("core", "core+order"))
    def test_reprepare_is_content_identical_to_prepare(self, mode):
        for index, base in enumerate(GRAPHS):
            graph = base.copy()
            for inserts, deletes in mutation_script(graph, steps=4, seed=index):
                for edge in inserts:
                    graph.add_edge(*edge)
                for edge in deletes:
                    graph.remove_edge(*edge)
                repaired = reprepare(graph, 1, mode=mode, theta_left=2, theta_right=2)
                scratch = prepare(graph, 1, mode=mode, theta_left=2, theta_right=2)
                assert self._plan_content(repaired) == self._plan_content(
                    scratch
                ), f"{mode} g{index} epoch={graph.epoch}"

    @pytest.mark.parametrize(
        "inserts, deletes", ((((5, 5),), ()), ((), ((4, 0),))), ids=("insert", "delete")
    )
    def test_batch_outside_the_core_matches_prepare(self, inserts, deletes):
        # k=1, θ=3: the (2, 2)-core is the 4x4 block.  Each batch leaves
        # that core as it was but changes the graph's edge count, which
        # ``removed_edges`` must follow.
        block = [(v, u) for v in range(4) for u in range(4)]
        graph = BipartiteGraph(6, 6, block + [(4, 0), (0, 4)])
        graph.apply_batch(inserts, deletes)
        repaired = reprepare(graph, 1, mode="core", theta_left=3, theta_right=3)
        scratch = prepare(graph, 1, mode="core", theta_left=3, theta_right=3)
        assert self._plan_content(repaired) == self._plan_content(scratch)


# --------------------------------------------------------------------- #
# Stale cursors: rejected exactly when the epoch moved
# --------------------------------------------------------------------- #
def small_query(graph, **overrides):
    query = {
        "graph": {
            "n_left": graph.n_left,
            "n_right": graph.n_right,
            "edges": [list(edge) for edge in sorted(graph.edges())],
        },
        "k": 1,
    }
    query.update(overrides)
    return query


class TestStaleCursors:
    # 6 maximal 1-biplexes, so pagination has pages left after the first;
    # (3, 3) is absent and is the edge the update tests insert.
    GRAPH = BipartiteGraph(
        4, 4, [(v, u) for v in range(4) for u in range(4) if (v + u) % 3]
    )

    def test_engine_cursor_rejected_after_epoch_change(self):
        from repro.core import EnumerationSession

        graph = self.GRAPH.copy()
        session = EnumerationSession(graph, 1)
        session.next_batch(2)
        cursor = session.cursor()
        # Same epoch: resumes fine.
        resumed = EnumerationSession.resume(graph, 1, cursor)
        assert resumed.next_batch(1)
        graph.add_edge(3, 3)
        with pytest.raises(StaleCursorError, match="epoch"):
            EnumerationSession.resume(graph, 1, cursor)

    def test_service_cursor_stale_only_after_update(self):
        service = QueryService()
        query = small_query(self.GRAPH)
        opened = service.open_session(query, page_size=2)
        cursor = opened["cursor"]
        # No update yet: the cursor resumes.
        assert service.next_page(cursor=cursor)["solutions"]
        service.update({"graph": query["graph"], "insert": [[3, 3]]})
        with pytest.raises(ServiceStaleCursorError):
            service.next_page(cursor=cursor)
        # A cursor minted *after* the update is good again.
        fresh = service.open_session(small_query(self.GRAPH), page_size=2)
        assert service.next_page(cursor=fresh["cursor"])["solutions"]

    def test_noop_update_keeps_cursors_valid(self):
        service = QueryService()
        query = small_query(self.GRAPH)
        opened = service.open_session(query, page_size=2)
        cursor = opened["cursor"]
        outcome = service.update(
            {"graph": query["graph"], "insert": [[0, 1]]}  # already present
        )
        assert outcome["epoch"] == 0
        assert (outcome["added"], outcome["removed"]) == (0, 0)
        assert service.next_page(cursor=cursor)["solutions"]


class TestLiveSessionsAcrossUpdates:
    """A traversal suspended across an edit never mixes two epochs."""

    @staticmethod
    def _absent_edges(graph, count):
        return [
            (v, u)
            for v in range(graph.n_left)
            for u in range(graph.n_right)
            if not graph.has_edge(v, u)
        ][:count]

    def test_live_session_spanning_an_update_answers_409(self):
        from repro.graph import erdos_renyi_bipartite
        from repro.service import SessionExpired

        graph = erdos_renyi_bipartite(12, 12, num_edges=60, seed=0)
        service = QueryService()
        # Serial: a sorted parallel run buffers its whole answer before the
        # first page, so it cannot span an update.
        query = small_query(graph, jobs=1)
        page = service.open_session(query, page_size=5)
        assert len(page["solutions"]) == 5 and not page["exhausted"]
        inserts = self._absent_edges(graph, 10)
        service.update({"graph": query["graph"], "insert": [list(e) for e in inserts]})
        with pytest.raises(ServiceStaleCursorError, match="epoch 0.*epoch 1"):
            service.next_page(session_id=page["session_id"], page_size=5)
        # The dead session is gone; its cursor is stale too.
        with pytest.raises(SessionExpired):
            service.next_page(session_id=page["session_id"])
        with pytest.raises(ServiceStaleCursorError):
            service.next_page(cursor=page["cursor"])

    def test_one_shot_run_spanning_an_update_answers_409(self):
        class EditedMidRun(BipartiteGraph):
            """Inserts an edge on the 50th right-mask probe of a traversal."""

            probes = 0

            def adj_right_mask(self, right_vertex):
                self.probes += 1
                if self.probes == 50:
                    self.add_edge(3, 3)
                return super().adj_right_mask(right_vertex)

        base = TestStaleCursors.GRAPH
        graph = EditedMidRun(base.n_left, base.n_right, base.edges())
        service = QueryService()
        query = small_query(base, jobs=1)
        key, _ = service.resolve_graph(query["graph"])
        service.registry.invalidate(key)
        service.registry.get_graph(key, lambda: graph)
        with pytest.raises(ServiceStaleCursorError, match="stale_cursor"):
            service.enumerate(query)
        assert graph.has_edge(3, 3)
        assert service.stats()["result_cache_resident"] == 0

    def test_itraversal_raises_when_its_graph_is_edited_mid_run(self):
        graph = TestStaleCursors.GRAPH.copy()
        run = ITraversal(graph, 1, jobs=1).run()
        next(run)
        graph.add_edge(3, 3)
        with pytest.raises(StaleCursorError, match="epoch 0.*epoch 1"):
            next(run)

    def test_new_itraversal_enumerates_the_new_epoch(self):
        from repro.baselines import enumerate_mbps_bruteforce

        graph = TestStaleCursors.GRAPH.copy()
        before = set(ITraversal(graph, 1).enumerate())
        graph.add_edge(3, 3)
        after = set(ITraversal(graph, 1).enumerate())
        assert after == set(enumerate_mbps_bruteforce(graph, 1))
        assert after != before


# --------------------------------------------------------------------- #
# Service update path: validation, cache invalidation, plan repair
# --------------------------------------------------------------------- #
class TestServiceUpdate:
    def test_update_invalidates_and_repairs(self):
        service = QueryService()
        graph = TestStaleCursors.GRAPH
        query = small_query(graph)
        before = service.enumerate(query)
        assert service.enumerate(query)["cached"]
        outcome = service.update({"graph": query["graph"], "insert": [[3, 3]]})
        assert outcome["epoch"] == 1
        assert outcome["added"] == 1
        assert outcome["plans_invalidated"] == 1
        assert outcome["results_invalidated"] == 1
        after = service.enumerate(query)
        assert not after["cached"]
        assert service.registry.counters()["plans_repaired"] == 1
        # The post-update answer equals a cold service on the mutated graph.
        mutated = graph.copy()
        mutated.add_edge(3, 3)
        cold = QueryService().enumerate(small_query(mutated))
        assert after["solutions"] == cold["solutions"]
        assert before["solutions"] != after["solutions"]

    def test_one_rebuilt_plan_serves_every_objective(self):
        from repro.graph import erdos_renyi_bipartite

        graph = erdos_renyi_bipartite(10, 10, num_edges=55, seed=3)
        query = small_query(graph, theta_left=3, theta_right=3)
        service = QueryService()
        service.enumerate(query)
        absent = next(
            (v, u) for v in range(10) for u in range(10) if not graph.has_edge(v, u)
        )
        service.update({"graph": query["graph"], "insert": [list(absent)]})
        mutated = graph.copy()
        mutated.add_edge(*absent)
        counters = service.registry.counters()
        for objective in ({}, {"mode": "maximum"}, {"mode": "top-k", "top": 3}):
            response = service.enumerate(dict(query, **objective))
            library = ITraversal(
                mutated, 1, theta_left=3, theta_right=3, **objective
            ).enumerate()
            assert response["solutions"] == [
                [sorted(s.left), sorted(s.right)] for s in library
            ], objective
        after = service.registry.counters()
        assert after["plans_repaired"] - counters["plans_repaired"] == 1
        assert after["plans_built"] - counters["plans_built"] == 1
        assert after["plan_hits"] - counters["plan_hits"] == 2

    def test_update_validation_errors(self):
        service = QueryService()
        query = small_query(TestStaleCursors.GRAPH)
        service.enumerate(query)
        with pytest.raises(QueryError, match="non-empty insert or delete"):
            service.update({"graph": query["graph"]})
        with pytest.raises(QueryError, match="out of range"):
            service.update({"graph": query["graph"], "insert": [[99, 0]]})
        with pytest.raises(QueryError, match="unknown update field"):
            service.update({"graph": query["graph"], "insert": [[0, 0]], "k": 1})
        with pytest.raises(QueryError, match="insert"):
            service.update({"graph": query["graph"], "insert": [[0]]})

    def test_update_of_unloaded_graph_is_a_query_error(self):
        service = QueryService()
        with pytest.raises(QueryError):
            service.update({"graph": {"path": "/nonexistent.txt"}, "insert": [[0, 0]]})

    def test_stats_report_update_counters(self):
        service = QueryService()
        query = small_query(TestStaleCursors.GRAPH)
        service.enumerate(query)
        service.update({"graph": query["graph"], "insert": [[3, 3]]})
        stats = service.stats()
        assert stats["updates"] == 1
        assert stats["results_invalidated"] == 1
        assert stats["updates_applied"] == 1
        assert stats["plan_invalidations"] == 1


# --------------------------------------------------------------------- #
# Rate limiter
# --------------------------------------------------------------------- #
class TestRateLimiter:
    def test_token_bucket_with_injected_clock(self):
        clock = {"now": 0.0}
        limiter = RateLimiter(rate=2.0, burst=2, clock=lambda: clock["now"])
        assert limiter.allow("a") == (True, 0.0)
        assert limiter.allow("a") == (True, 0.0)
        allowed, retry = limiter.allow("a")
        assert not allowed and retry == pytest.approx(0.5)
        # Another client has its own bucket.
        assert limiter.allow("b")[0]
        # Refill restores capacity.
        clock["now"] = 1.0
        assert limiter.allow("a")[0]

    def test_rejection_counter(self):
        limiter = RateLimiter(rate=1.0, burst=1, clock=lambda: 0.0)
        limiter.allow("a")
        limiter.allow("a")
        assert limiter.rejected == 1

    def test_limiter_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RATE_LIMIT", raising=False)
        assert limiter_from_env() is None
        assert limiter_from_env(rate=5.0).rate == 5.0
        monkeypatch.setenv("REPRO_RATE_LIMIT", "2.5")
        assert limiter_from_env().rate == 2.5
        assert limiter_from_env(rate=9.0).rate == 9.0  # explicit beats env
        monkeypatch.setenv("REPRO_RATE_LIMIT", "0")
        assert limiter_from_env() is None
        monkeypatch.setenv("REPRO_RATE_LIMIT", "not-a-number")
        with pytest.raises(ValueError):
            limiter_from_env()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0)
        with pytest.raises(ValueError):
            RateLimiter(rate=1.0, burst=0.5)
