"""Differential tests for the solver objectives (maximum / top-k).

The oracle is the full enumeration: ``maximum`` must return the min-key
solution among the maximum-size ones, ``top-k`` the first ``n`` of the
full set sorted by ``(-size, key)``.  Both are pinned serial and
``jobs=2``, on every construction route of ``graph_samples.ROUTES``, and
across the prep modes — the incumbent-bound
pruning (and the cross-worker bound gossip) must never change answers,
only skip work.
"""

import pytest

from graph_samples import ROUTES, random_graphs, via

from repro.core import (
    EnumerationSession,
    LargeMBPEnumerator,
    MaximumSize,
    TopK,
    enumerate_mbps,
    itraversal_config,
    make_objective,
    resolve_objective,
)
from repro.core.biplex import Biplex
from repro.graph import erdos_renyi_bipartite, paper_example_graph

GRAPHS = [paper_example_graph()] + random_graphs(4, max_side=5, seed=7)

#: One slightly larger graph for the parallel legs (enough shards to
#: actually fan out on jobs=2).
PARALLEL_GRAPH = erdos_renyi_bipartite(8, 7, num_edges=34, seed=5)


def _oracle(graph, k, theta_left=0, theta_right=0):
    solutions, _ = enumerate_mbps(graph, k, jobs=1)
    solutions = [
        s
        for s in solutions
        if len(s.left) >= theta_left and len(s.right) >= theta_right
    ]
    return sorted(solutions, key=lambda s: (-s.size, s.key()))


class TestResolveObjective:
    def test_defaults_to_enumerate(self):
        assert resolve_objective() == ("enumerate", None)
        assert resolve_objective(None, None) == ("enumerate", None)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            resolve_objective("largest")

    def test_top_k_needs_top(self):
        with pytest.raises(ValueError, match="top-k mode needs top"):
            resolve_objective("top-k")
        with pytest.raises(ValueError, match="positive integer"):
            resolve_objective("top-k", 0)
        with pytest.raises(ValueError, match="positive integer"):
            resolve_objective("top-k", True)

    def test_top_rejected_outside_top_k(self):
        with pytest.raises(ValueError, match="only applies to the top-k mode"):
            resolve_objective("maximum", 3)
        with pytest.raises(ValueError, match="only applies to the top-k mode"):
            resolve_objective(None, 3)

    def test_factory_dispatch(self):
        assert isinstance(make_objective("maximum"), MaximumSize)
        assert isinstance(make_objective("top-k", 2), TopK)
        assert make_objective("enumerate").trivial


class TestObjectiveUnits:
    def _biplex(self, left, right):
        return Biplex(left=frozenset(left), right=frozenset(right))

    def test_maximum_tie_breaks_by_key(self):
        objective = MaximumSize()
        later = self._biplex([1, 2], [3, 4])
        earlier = self._biplex([0, 2], [3, 4])
        assert objective.observe(later)
        assert objective.observe(earlier)  # same size, smaller key wins
        assert not objective.observe(later)
        assert objective.results() == [earlier]
        assert objective.prune_below() == 4

    def test_top_k_bound_only_when_full(self):
        objective = TopK(2)
        assert objective.prune_below() == 0
        objective.observe(self._biplex([0], [1, 2]))
        assert objective.prune_below() == 0
        objective.observe(self._biplex([0, 1], [1, 2]))
        assert objective.prune_below() == 3  # the 2nd-best size

    def test_state_round_trip(self):
        for objective in (MaximumSize(), TopK(3)):
            objective.observe(self._biplex([0, 1], [2]))
            objective.observe(self._biplex([0], [2, 3]))
            clone = type(objective)(3) if isinstance(objective, TopK) else type(objective)()
            clone.load_state(objective.state())
            assert clone.results() == objective.results()
            assert clone.prune_below() == objective.prune_below()


class TestSolverDifferential:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("prep", ["off", "core+order"])
    def test_maximum_matches_oracle_serial(self, route, prep):
        for graph in GRAPHS:
            routed = via(route, graph)
            for k in (1, 2):
                oracle = _oracle(graph, k)
                solutions, stats = enumerate_mbps(
                    routed, k, prep=prep, jobs=1, mode="maximum"
                )
                assert solutions == oracle[:1]
                if oracle:
                    assert stats.best_size == oracle[0].size

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("prep", ["off", "core+order"])
    def test_top_k_matches_oracle_serial(self, route, prep):
        for graph in GRAPHS:
            routed = via(route, graph)
            oracle = _oracle(graph, 1)
            for top in (1, 3, len(oracle) + 5):
                solutions, _ = enumerate_mbps(
                    routed, 1, prep=prep, jobs=1, mode="top-k", top=top
                )
                assert solutions == oracle[:top]

    @pytest.mark.parametrize("route", ROUTES)
    def test_solver_modes_match_oracle_jobs2(self, route):
        oracle = _oracle(PARALLEL_GRAPH, 1)
        graph = via(route, PARALLEL_GRAPH)
        solutions, stats = enumerate_mbps(graph, 1, jobs=2, mode="maximum")
        assert solutions == oracle[:1]
        assert stats.best_size == oracle[0].size
        solutions, _ = enumerate_mbps(graph, 1, jobs=2, mode="top-k", top=5)
        assert solutions == oracle[:5]

    @pytest.mark.parametrize("prep", ["off", "core"])
    def test_solver_modes_match_oracle_jobs2_prep(self, prep):
        oracle = _oracle(PARALLEL_GRAPH, 1)
        solutions, _ = enumerate_mbps(
            PARALLEL_GRAPH, 1, prep=prep, jobs=2, mode="top-k", top=3
        )
        assert solutions == oracle[:3]

    def test_bound_pruning_actually_fires(self):
        _, stats = enumerate_mbps(PARALLEL_GRAPH, 1, jobs=1, mode="maximum")
        assert stats.num_pruned_by_bound > 0

    def test_enumerate_mode_never_counts_bound_prunes(self):
        _, stats = enumerate_mbps(PARALLEL_GRAPH, 1, jobs=1)
        assert stats.num_pruned_by_bound == 0
        assert stats.best_size == max(s.size for s in _oracle(PARALLEL_GRAPH, 1))

    def test_large_mbp_solver_client(self):
        """Thresholds and the incumbent bound share one pruning path."""
        graph = PARALLEL_GRAPH
        oracle = _oracle(graph, 1, theta_left=2, theta_right=2)
        enumerator = LargeMBPEnumerator(graph, 1, theta=2, mode="maximum")
        assert enumerator.enumerate() == oracle[:1]
        enumerator = LargeMBPEnumerator(graph, 1, theta=2, mode="top-k", top=4)
        assert enumerator.enumerate() == oracle[:4]


class TestSolverCursors:
    def _config(self, **overrides):
        return itraversal_config(jobs=1, **overrides)

    def test_top_k_resume_mid_run_is_deterministic(self):
        graph = PARALLEL_GRAPH
        oracle = _oracle(graph, 1)
        for cap in (1, 5, 20, 60):
            session = EnumerationSession(
                graph, 1, self._config(objective="top-k", top=4, max_results=cap)
            )
            partial = list(session.stream())  # capped leg: best-so-far answers
            token = session.cursor()
            session.close()
            resumed = EnumerationSession.resume(
                graph, 1, token, self._config(objective="top-k", top=4)
            )
            final = list(resumed.stream())
            if session.stats.truncated:
                # The cap interrupted the traversal: the resumed leg owes
                # the full refined answer set.
                assert final == oracle[:4], f"cap={cap}"
            else:
                # Bound pruning finished the traversal under the cap: the
                # first leg already emitted the final answers and the
                # exhausted cursor resumes empty.
                assert partial == oracle[:4], f"cap={cap}"
                assert final == [], f"cap={cap}"

    def test_maximum_resume_mid_run_is_deterministic(self):
        graph = PARALLEL_GRAPH
        oracle = _oracle(graph, 1)
        session = EnumerationSession(
            graph, 1, self._config(objective="maximum", max_results=3)
        )
        list(session.stream())
        token = session.cursor()
        session.close()
        resumed = EnumerationSession.resume(
            graph, 1, token, self._config(objective="maximum")
        )
        assert list(resumed.stream()) == oracle[:1]

    def test_capped_leg_emits_best_so_far(self):
        graph = PARALLEL_GRAPH
        session = EnumerationSession(
            graph, 1, self._config(objective="top-k", top=4, max_results=6)
        )
        partial = list(session.stream())
        assert 0 < len(partial) <= 4
        assert session.stats.truncated

    def test_exhausted_solver_cursor_resumes_empty(self):
        graph = GRAPHS[0]
        session = EnumerationSession(graph, 1, self._config(objective="maximum"))
        answer = list(session.stream())
        assert len(answer) == 1
        token = session.cursor()
        resumed = EnumerationSession.resume(
            graph, 1, token, self._config(objective="maximum")
        )
        assert resumed.exhausted
        assert list(resumed.stream()) == []

    def test_objective_is_fingerprinted(self):
        from repro.core import CursorError

        graph = GRAPHS[0]
        session = EnumerationSession(graph, 1, self._config(objective="maximum"))
        session.next_batch(1)
        token = session.cursor()
        session.close()
        with pytest.raises(CursorError):
            EnumerationSession.resume(graph, 1, token, self._config())
        with pytest.raises(CursorError):
            EnumerationSession.resume(
                graph, 1, token, self._config(objective="top-k", top=2)
            )

    def test_offset_solver_cursor_resumes_pagination(self):
        graph = PARALLEL_GRAPH
        oracle = _oracle(graph, 1)
        config = itraversal_config(jobs=2, objective="top-k", top=3)
        session = EnumerationSession(graph, 1, config)
        first = session.next_batch(2)
        assert first == oracle[:2]
        token = session.cursor()
        session.close()
        # The uncapped leg completed its traversal, so the refined set is
        # final: the offset resume re-runs and skips the consumed prefix.
        resumed = EnumerationSession.resume(graph, 1, token, config)
        assert list(resumed.stream()) == oracle[2:3]


class TestBoundCoreSets:
    def test_unbounded_returns_everything(self):
        from repro.prep import bound_core_sets

        graph = paper_example_graph()
        left, right = bound_core_sets(graph, 1, 0)
        assert left == set(range(graph.n_left))
        assert right == set(range(graph.n_right))

    def test_every_qualifying_solution_survives(self):
        from repro.prep import bound_core_sets

        for graph in GRAPHS:
            oracle = _oracle(graph, 1)
            if not oracle:
                continue
            bound = oracle[0].size
            left, right = bound_core_sets(graph, 1, bound)
            for solution in oracle:
                if solution.size >= bound:
                    assert set(solution.left) <= left
                    assert set(solution.right) <= right

    def test_tight_bound_peels_something(self):
        """The re-reduction bites once the bound exceeds a side's head-room.

        A planted dense block in a sparse background: the maximum biplex
        spans the block, so ``bound − n_left`` forces a right-side size
        that the background-only right vertices cannot reach.
        """
        from repro.graph.generators import planted_biplex_graph
        from repro.prep import bound_core_sets

        graph = planted_biplex_graph(
            12, 9, block_left=9, block_right=4, k=1, background_edges=8, seed=2
        )
        oracle = _oracle(graph, 1)
        bound = oracle[0].size
        left, right = bound_core_sets(graph, 1, bound)
        assert len(right) < graph.n_right
        for solution in oracle:
            if solution.size >= bound:
                assert set(solution.left) <= left
                assert set(solution.right) <= right


class TestServiceObjectives:
    def _service(self):
        from repro.service import QueryService

        return QueryService()

    def _query(self, graph, **extra):
        edges = [
            [v, u]
            for v in range(graph.n_left)
            for u in sorted(graph.neighbors_of_left(v))
        ]
        return {
            "graph": {
                "n_left": graph.n_left,
                "n_right": graph.n_right,
                "edges": edges,
            },
            "k": 1,
            **extra,
        }

    def test_mode_separates_result_cache_entries(self):
        """A maximum answer must never be served for an enumerate query."""
        service = self._service()
        graph = PARALLEL_GRAPH
        maximum = service.enumerate(self._query(graph, mode="maximum"))
        plain = service.enumerate(self._query(graph))
        assert maximum["num_solutions"] == 1
        assert plain["num_solutions"] == len(_oracle(graph, 1))
        assert not plain["cached"]
        # Same fingerprint, different mode → distinct plan-cache entries.
        assert service.registry.counters()["plans_built"] == 2
        again = service.enumerate(self._query(graph, mode="maximum"))
        assert again["cached"]
        assert again["num_solutions"] == 1

    def test_status_block_reports_mode_and_bound_counters(self):
        service = self._service()
        response = service.enumerate(self._query(GRAPHS[0], mode="maximum"))
        status = response["status"]
        assert status["mode"] == "maximum"
        assert status["best_size"] > 0
        assert "num_pruned_by_bound" in status

    def test_top_k_normalization_errors(self):
        from repro.service import QueryError

        service = self._service()
        with pytest.raises(QueryError, match="top-k mode needs top"):
            service.normalize(self._query(GRAPHS[0], mode="top-k"))
        with pytest.raises(QueryError, match="mode must be one of"):
            service.normalize(self._query(GRAPHS[0], mode="biggest"))
        with pytest.raises(QueryError, match="only applies to the top-k mode"):
            service.normalize(self._query(GRAPHS[0], top=3))

    def test_paginated_top_k_with_service_cursor(self):
        service = self._service()
        graph = PARALLEL_GRAPH
        oracle = _oracle(graph, 1)
        response = service.open_session(
            self._query(graph, mode="top-k", top=4), page_size=2
        )
        solutions = list(response["solutions"])
        pages = 1
        while not response["exhausted"]:
            # Cursor-only resume: drop the live session on purpose.  The
            # completed-traversal cursor paginates the final answer list,
            # so this loop terminates without duplicates.
            response = service.next_page(
                cursor=response["cursor"], page_size=2
            )
            solutions.extend(response["solutions"])
            pages += 1
            assert pages <= 8, "cursor pagination failed to make progress"
        expected = [[sorted(s.left), sorted(s.right)] for s in oracle[:4]]
        assert solutions == expected
