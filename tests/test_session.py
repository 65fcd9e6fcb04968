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

import base64
import os
import random
import subprocess
import sys

import pytest
from graph_samples import ROUTES, random_graphs, via

from repro.core import CursorError, EnumerationSession, ITraversal, TraversalConfig
from repro.graph import erdos_renyi_bipartite, paper_example_graph

GRAPHS = [
    paper_example_graph(),
    erdos_renyi_bipartite(7, 6, num_edges=26, seed=11),
]


def _session(graph, k=1, **overrides):
    config = TraversalConfig(**overrides)
    return EnumerationSession(graph, k, config)


def _full_run(graph, k=1, **overrides):
    session = _session(graph, k, **overrides)
    return list(session.stream())


class TestSessionBasics:
    @pytest.mark.parametrize("objective, top", [("enumerate", None), ("top-k", 3)])
    def test_dropped_session_publishes_without_the_cyclic_gc(self, monkeypatch, objective, top):
        """A session dropped mid-stream publishes its run when its last
        reference goes, not whenever the cyclic GC next runs."""
        import gc

        from repro.core import session as session_module

        published = []
        monkeypatch.setattr(session_module, "publish_run_stats", published.append)
        session = _session(GRAPHS[1], objective=objective, top=top, jobs=1)
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert len(session.next_batch(3)) == 3
            del session
            assert len(published) == 1
        finally:
            if enabled:
                gc.enable()

    def test_session_open_at_exit_finalizes_quietly(self):
        """A script that ends with a session still open exits with an empty
        stderr: the session's stats publication at interpreter shutdown
        needs no import."""
        import repro

        script = (
            "from repro import ITraversal\n"
            "from repro.graph import paper_example_graph\n"
            "s = ITraversal(paper_example_graph(), 1).session()\n"
            "s.next_batch(1)\n"
        )
        env = dict(os.environ, PYTHONPATH=repro.__path__[0].rsplit("repro", 1)[0])
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0
        assert result.stderr == ""

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
                    TraversalConfig(prep=prep, jobs=1),
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
            graph, 1, token, TraversalConfig(prep=prep, jobs=2)
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
            session = EnumerationSession.resume(graph, 1, token, TraversalConfig())
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
                via(route, graph), 1, token, TraversalConfig()
            )
            assert prefix + list(resumed.stream()) == expected, route

    def test_exhausted_cursor_resumes_empty(self):
        graph = paper_example_graph()
        session = _session(graph)
        list(session.stream())
        token = session.cursor()
        resumed = EnumerationSession.resume(graph, 1, token, TraversalConfig())
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
            resumed = EnumerationSession.resume(graph, 1, token, TraversalConfig(jobs=1))
            assert prefix + list(resumed.stream()) == expected

    def test_close_after_resuming_an_exhausted_cursor(self):
        """A session resumed from an exhausted cursor closes cleanly and
        publishes no engine run: it never ran one."""
        from repro.obs import get_registry

        graph = erdos_renyi_bipartite(6, 6, num_edges=18, seed=1)
        session = _session(graph)
        while not session.exhausted:
            session.next_batch(4)
        token = session.cursor()
        session.close()
        runs = get_registry().counter_value("engine_runs_total")
        resumed = EnumerationSession.resume(graph, 1, token, TraversalConfig())
        resumed.close()
        assert resumed.exhausted
        assert list(resumed.stream()) == []
        assert get_registry().counter_value("engine_runs_total") == runs


class TestResumeThenMint:
    """Seeded scripts of pulls, mints and resumes reproduce the one-shot stream.

    Each trial draws an ER graph of 5-10 vertices a side, ``k``, the output
    order, the prep mode, θ and the objective, then takes twelve random
    steps: pull a page, mint and resume, or mint and resume twice with no
    pull between.  The job count is left to ``REPRO_JOBS``, so the parallel
    leg runs the same scripts through offset-mode cursors.
    """

    def test_random_scripts_reproduce_the_one_shot_stream(self):
        from repro.core.session import decode_token

        rng = random.Random(2026)
        for trial in range(24):
            n_left, n_right = rng.randint(5, 10), rng.randint(5, 10)
            graph = erdos_renyi_bipartite(
                n_left,
                n_right,
                num_edges=rng.randint(n_left * n_right // 3, 2 * n_left * n_right // 3),
                seed=rng.randrange(2**31),
            )
            k = rng.choice((1, 2))
            theta = rng.choice((0, 2))
            objective = rng.choice(("enumerate", "top-k", "maximum"))
            config = TraversalConfig(
                output_order=rng.choice(("pre", "alternate")),
                prep=rng.choice(("off", "core", "core+order")),
                theta_left=theta,
                theta_right=theta,
                objective=objective,
                top=3 if objective == "top-k" else None,
            )
            expected = list(EnumerationSession(graph, k, config).stream())
            session = EnumerationSession(graph, k, config)
            collected = []
            script = []
            for _ in range(12):
                step = rng.choice(("pull", "mint", "mint twice"))
                script.append(step)
                if step == "pull":
                    collected += session.next_batch(rng.randint(1, 5))
                    continue
                for _ in range(1 if step == "mint" else 2):
                    token = session.cursor()
                    session.close()
                    session = EnumerationSession.resume(graph, k, token, config)
                    if objective == "enumerate" and not decode_token(token)["exhausted"]:
                        # Nothing was pulled since the resume, so the session
                        # stands where its token does (no budget caps here,
                        # so not even the per-leg flags differ).
                        assert session.cursor() == token, (trial, script)
            collected += session.stream()
            assert collected == expected, (trial, script)


class TestCursorHygiene:
    def test_malformed_token_rejected(self):
        with pytest.raises(CursorError):
            EnumerationSession.resume(
                paper_example_graph(), 1, "not-a-token", TraversalConfig()
            )
        session = _session(paper_example_graph())
        session.next_batch(2)
        truncated = base64.urlsafe_b64encode(
            base64.urlsafe_b64decode(session.cursor())[:-8]
        ).decode("ascii")
        with pytest.raises(CursorError, match="truncated"):
            EnumerationSession.resume(paper_example_graph(), 1, truncated, TraversalConfig())

    def test_wrong_graph_rejected(self):
        session = _session(paper_example_graph())
        session.next_batch(2)
        token = session.cursor()
        other = erdos_renyi_bipartite(4, 4, num_edges=9, seed=3)
        with pytest.raises(CursorError):
            EnumerationSession.resume(other, 1, token, TraversalConfig())

    def test_wrong_k_rejected(self):
        session = _session(paper_example_graph())
        session.next_batch(2)
        token = session.cursor()
        with pytest.raises(CursorError):
            EnumerationSession.resume(paper_example_graph(), 2, token, TraversalConfig())

    def test_jobs_mode_mismatch_rejected(self):
        session = _session(paper_example_graph(), jobs=1)
        session.next_batch(2)
        token = session.cursor()
        with pytest.raises(CursorError):
            EnumerationSession.resume(
                paper_example_graph(), 1, token, TraversalConfig(jobs=2)
            )

    @pytest.mark.parametrize("objective, top", [("maximum", None), ("top-k", 2)])
    def test_out_of_range_objective_state_rejected(self, objective, top):
        from repro.core.session import decode_token, encode_token

        graph = paper_example_graph()
        config = TraversalConfig(objective=objective, top=top, max_results=3, jobs=1)
        session = EnumerationSession(graph, 1, config)
        session.next_batch(1)
        token = decode_token(session.cursor())
        incumbent = token["frontier"]["incumbents"][0]
        incumbent[0] = format(int(incumbent[0], 16) | 1 << graph.n_left, "x")
        with pytest.raises(CursorError, match="not in the graph"):
            EnumerationSession.resume(graph, 1, encode_token(token), config)

    @pytest.mark.parametrize("schema", ["repro-cursor/2", "repro-service-cursor/1"])
    def test_retired_schemas_rejected(self, schema):
        """``/2`` engine tokens and the old service envelope are refused."""
        from repro.core.session import decode_token, encode_token

        graph = paper_example_graph()
        session = _session(graph, jobs=1)
        session.next_batch(2)
        document = decode_token(session.cursor())
        old_engine = {**document, "schema": "repro-cursor/2"}
        if schema == "repro-cursor/2":
            old = old_engine
        else:
            old = {"schema": schema, "query": {}, "cursor": encode_token(old_engine)}
        with pytest.raises(CursorError, match="unsupported cursor schema"):
            EnumerationSession.resume(graph, 1, encode_token(old), TraversalConfig(jobs=1))

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            (
                dict(prep="off", jobs=1),
                "3e46c9f7e881c2015a3942e240c6e4981bc2b28db0b0d4feb2cd039de38fc986",
            ),
            (
                dict(prep="core+order", jobs=1, theta_left=2, theta_right=2),
                "d72b02376e6e202bdcdffc1dd119ab036a0aecca5fc5f65aac52cdd4bc884d33",
            ),
            (
                dict(prep="off", jobs=1, objective="maximum"),
                "1da669479001af31de298c8402ecfe568c7e8affbd471cbab1f837f9c4f3ba89",
            ),
        ],
    )
    def test_fingerprint_is_pinned(self, overrides, digest):
        """The hashed tuple is part of the cursor format: a change to it
        makes every cursor minted before the change unresumable."""
        session = EnumerationSession(paper_example_graph(), 1, TraversalConfig(**overrides))
        assert session.fingerprint() == digest

    def test_equal_positions_mint_identical_cursors(self):
        """A token carries no wall clock: two sessions of one serial query
        paged to the same point mint the same bytes."""
        tokens = set()
        for _ in range(2):
            session = _session(GRAPHS[1], jobs=1)
            session.next_batch(5)
            tokens.add(session.cursor())
        assert len(tokens) == 1

    @pytest.mark.parametrize(
        "text", ["-1", "+1", " 1", "1 ", "0x1", "1_0", "A", "١", "", 1, None]
    )
    def test_mask_must_be_lowercase_hex(self, text):
        """``int(text, 16)`` takes signs, spaces, ``0x`` and underscores; a
        cursor mask takes only the digits ``0-9a-f``."""
        from repro.core.session import _TokenDecoder

        with pytest.raises(CursorError):
            _TokenDecoder(paper_example_graph()).solution([text, "0"])

    def test_mask_length_and_range_follow_the_side(self):
        """At most one digit per four vertices (one when the side is empty),
        and no bit at or above the side's size."""
        from repro.core.session import _TokenDecoder
        from repro.graph import BipartiteGraph

        decoder = _TokenDecoder(BipartiteGraph(9, 0))
        assert decoder.solution(["1ff", "0"]).left_mask == 0x1FF
        for left, right in (("200", "0"), ("01ff", "0"), ("0", "1"), ("0", "00")):
            with pytest.raises(CursorError, match="not in the graph"):
                decoder.solution([left, right])

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
            graph, 1, token, TraversalConfig(max_results=None, jobs=1)
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
        resumed = EnumerationSession.resume(graph, 1, token, TraversalConfig())
        list(resumed.stream())
        full = _session(graph)
        list(full.stream())
        # num_reported continues from the checkpoint and lands on the total.
        assert reported_before == 5
        assert resumed.stats.num_reported == full.stats.num_reported
