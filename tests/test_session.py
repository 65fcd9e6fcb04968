"""Tests of long-lived enumeration sessions and resumable cursors.

The tentpole contract: a session interrupted at *any* point and resumed
from its cursor token produces the **exact suffix** of the uninterrupted
run — serial and parallel, every prep mode and every construction route
of ``graph_samples.ROUTES``.  Plus the front-end equivalences
(``session().stream()`` == ``run()``), the token hygiene errors, and
cursor portability between equal graphs built by different routes (the
fingerprint hashes the adjacency, not how it was filled).
"""

from __future__ import annotations

import pytest
from graph_samples import ROUTES, random_graphs, via

from repro.core import CursorError, EnumerationSession, ITraversal
from repro.core.itraversal import itraversal_config
from repro.graph import erdos_renyi_bipartite, paper_example_graph

GRAPHS = [
    paper_example_graph(),
    erdos_renyi_bipartite(7, 6, num_edges=26, seed=11),
]


def _session(graph, k=1, **overrides):
    config = itraversal_config(**overrides)
    return EnumerationSession(graph, k, config)


def _full_run(graph, k=1, **overrides):
    session = _session(graph, k, **overrides)
    return list(session.stream())


class TestSessionBasics:
    def test_stream_equals_classic_run(self):
        graph = paper_example_graph()
        expected = ITraversal(graph, 1).enumerate()
        assert _full_run(graph) == expected

    def test_next_batch_pages_through_everything(self):
        graph = paper_example_graph()
        expected = _full_run(graph)
        session = _session(graph)
        collected = []
        while not session.exhausted:
            collected.extend(session.next_batch(3))
        assert collected == expected
        assert session.emitted == len(expected)

    def test_next_batch_rejects_non_positive_sizes(self):
        session = _session(paper_example_graph())
        with pytest.raises(ValueError):
            session.next_batch(0)

    def test_front_end_session_methods(self):
        graph = paper_example_graph()
        expected = ITraversal(graph, 1).enumerate()
        session = ITraversal(graph, 1).session()
        assert list(session.stream()) == expected

    def test_exhausted_only_after_observation(self):
        graph = paper_example_graph()
        total = len(_full_run(graph))
        session = _session(graph)
        session.next_batch(total)
        assert not session.exhausted  # end not yet observed
        assert session.next_batch(1) == []
        assert session.exhausted


class TestCursorSuffixEquality:
    """Resume from any checkpoint yields the exact suffix."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("prep", ["off", "core", "core+order"])
    def test_serial_matrix(self, route, prep):
        for base in GRAPHS:
            expected = _full_run(base, prep=prep, jobs=1)
            graph = via(route, base)
            cuts = sorted({0, 1, len(expected) // 2, max(len(expected) - 1, 0)})
            for cut in cuts:
                session = _session(graph, prep=prep, jobs=1)
                prefix = session.next_batch(cut) if cut else []
                token = session.cursor()
                session.close()
                resumed = EnumerationSession.resume(
                    graph,
                    1,
                    token,
                    itraversal_config(prep=prep, jobs=1),
                )
                suffix = list(resumed.stream())
                assert prefix + suffix == expected, (route, prep, cut)

    @pytest.mark.parametrize("prep", ["off", "core+order"])
    def test_parallel_offset_cursor(self, prep):
        graph = GRAPHS[1]
        expected = _full_run(graph, prep=prep, jobs=2)
        cut = len(expected) // 2
        session = _session(graph, prep=prep, jobs=2)
        prefix = session.next_batch(cut)
        token = session.cursor()
        session.close()
        resumed = EnumerationSession.resume(
            graph, 1, token, itraversal_config(prep=prep, jobs=2)
        )
        suffix = list(resumed.stream())
        assert prefix + suffix == expected

    def test_mid_batch_checkpoints_compose(self):
        """Checkpoint after every page; each resume continues exactly."""
        graph = GRAPHS[1]
        expected = _full_run(graph)
        collected = []
        session = _session(graph)
        while True:
            page = session.next_batch(5)
            collected.extend(page)
            if session.exhausted:
                break
            token = session.cursor()
            session.close()
            session = EnumerationSession.resume(graph, 1, token, itraversal_config())
        assert collected == expected

    def test_cross_backend_portability(self):
        """A cursor captured on one construction route resumes on another."""
        graph = paper_example_graph()
        expected = _full_run(graph)
        session = _session(graph)
        prefix = session.next_batch(4)
        token = session.cursor()
        session.close()
        for route in ROUTES:
            resumed = EnumerationSession.resume(
                via(route, graph), 1, token, itraversal_config()
            )
            assert prefix + list(resumed.stream()) == expected, route

    def test_exhausted_cursor_resumes_empty(self):
        graph = paper_example_graph()
        session = _session(graph)
        list(session.stream())
        token = session.cursor()
        resumed = EnumerationSession.resume(graph, 1, token, itraversal_config())
        assert resumed.exhausted
        assert list(resumed.stream()) == []

    def test_random_graph_sweep(self):
        for graph in random_graphs(4, max_side=5, seed=77):
            expected = _full_run(graph, jobs=1)
            cut = max(1, len(expected) // 3)
            session = _session(graph, jobs=1)
            prefix = session.next_batch(cut)
            token = session.cursor()
            session.close()
            resumed = EnumerationSession.resume(graph, 1, token, itraversal_config(jobs=1))
            assert prefix + list(resumed.stream()) == expected


class TestCursorHygiene:
    def test_malformed_token_rejected(self):
        with pytest.raises(CursorError):
            EnumerationSession.resume(
                paper_example_graph(), 1, "not-a-token", itraversal_config()
            )

    def test_wrong_graph_rejected(self):
        session = _session(paper_example_graph())
        session.next_batch(2)
        token = session.cursor()
        other = erdos_renyi_bipartite(4, 4, num_edges=9, seed=3)
        with pytest.raises(CursorError):
            EnumerationSession.resume(other, 1, token, itraversal_config())

    def test_wrong_k_rejected(self):
        session = _session(paper_example_graph())
        session.next_batch(2)
        token = session.cursor()
        with pytest.raises(CursorError):
            EnumerationSession.resume(paper_example_graph(), 2, token, itraversal_config())

    def test_jobs_mode_mismatch_rejected(self):
        session = _session(paper_example_graph(), jobs=1)
        session.next_batch(2)
        token = session.cursor()
        with pytest.raises(CursorError):
            EnumerationSession.resume(
                paper_example_graph(), 1, token, itraversal_config(jobs=2)
            )

    def test_completion_order_refuses_cursor(self):
        config = itraversal_config(jobs=2)
        from dataclasses import replace

        config = replace(config, parallel_order="completion")
        session = EnumerationSession(paper_example_graph(), 1, config)
        with pytest.raises(CursorError):
            session.cursor()
        session.close()

    def test_budgets_may_differ_on_resume(self):
        """max_results / time_limit are deliberately not fingerprinted.

        Pinned to jobs=1: a *capped* parallel run keeps the first
        arrivals (scheduling-dependent subset), so only serial capped
        prefixes are comparable against the uncapped stream.
        """
        graph = paper_example_graph()
        expected = _full_run(graph, jobs=1)
        session = _session(graph, max_results=4, jobs=1)
        prefix = session.next_batch(3)
        token = session.cursor()
        session.close()
        resumed = EnumerationSession.resume(
            graph, 1, token, itraversal_config(max_results=None, jobs=1)
        )
        assert prefix + list(resumed.stream()) == expected


class TestStatsContinuity:
    def test_resumed_stats_carry_counters(self):
        graph = GRAPHS[1]
        session = _session(graph)
        session.next_batch(5)
        token = session.cursor()
        reported_before = session.stats.num_reported
        session.close()
        resumed = EnumerationSession.resume(graph, 1, token, itraversal_config())
        list(resumed.stream())
        full = _session(graph)
        list(full.stream())
        # num_reported continues from the checkpoint and lands on the total.
        assert reported_before == 5
        assert resumed.stats.num_reported == full.stats.num_reported
