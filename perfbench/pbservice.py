"""The ``service-mixed`` workload: mixed read/write traffic against the daemon.

One closed-loop client (one request in flight; the daemon closes every
connection) replays a seeded script in rounds.  A round is

* one ``/v1/update`` batch on the planted graph: ten new edges, plus the
  deletion of the ten inserted two rounds earlier, so |E| stays steady;
* the first one-shot query per plan key after it (enumerate, maximum,
  top-k at θ=5) — each pays a plan repair plus the engine run;
* the same three with a fresh ``max_results`` (plan hit, result miss);
* all six again (result-cache hits);
* two paginated sessions on ``divorce`` at θ=4, page size 50, alternating
  live pages (``session_id`` + ``cursor``) and cursor-only resumes.

The untraced run talks HTTP to ``python -m repro.serve``.  The traced run
replays the script in-process against a :class:`QueryService` (the
wrappers cannot reach into another process) and takes the ``http.*``
figures from a short daemon leg.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import pbstats
import pbtrace

K = 1
SIDE = 2000
BLOCK = 6
BACKGROUND_EDGES = 12_000
PLANTED_THETA = 5
DIVORCE_THETA = 4
PAGE_SIZE = 50
BATCH = 10
PAGINATIONS_PER_ROUND = 2
#: Daemon boots per run; ``setup_s`` is their median.
BOOTS = 5
#: Page deliveries a run needs before its p90 is backed by ten samples.
MIN_PAGE_SAMPLES = 100
#: Request classes that deliver a page of a paginated session.
PAGE_CLASSES = ("open", "page", "resume")
#: Rounds of each in-process leg of the traced run.
TRACED_ROUNDS = 5
MODES = (("enumerate", None), ("maximum", None), ("top-k", 3))

DEFAULT_SEED = 1

Reply = Tuple[int, Optional[dict], int]  # (status, JSON body, body bytes)


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #

def make_inputs(seed: int, workdir: Path) -> Path:
    """Write the planted 2000x2000 graph for ``seed``; returns its path."""
    from repro.graph.generators import planted_biplex_graph_with_blocks
    from repro.graph.io import write_edge_list

    graph, _ = planted_biplex_graph_with_blocks(
        SIDE, SIDE, BLOCK, BLOCK, K,
        background_edges=BACKGROUND_EDGES, num_blocks=2, seed=seed,
    )
    path = workdir / f"planted-{seed}.txt"
    write_edge_list(graph, path)
    return path


class UpdateScript:
    """The seeded edge batches: round ``r`` deletes round ``r - 2``'s inserts."""

    def __init__(self, seed: int, graph) -> None:
        self._rng = random.Random(f"service-mixed/{seed}")
        self._present = set(graph.edges())
        self._inserted: List[List[Tuple[int, int]]] = []

    def next_batch(self) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        inserts: List[Tuple[int, int]] = []
        while len(inserts) < BATCH:
            edge = (self._rng.randrange(SIDE), self._rng.randrange(SIDE))
            if edge not in self._present:
                self._present.add(edge)
                inserts.append(edge)
        deletes = self._inserted[-2] if len(self._inserted) >= 2 else []
        self._present.difference_update(deletes)
        self._inserted.append(inserts)
        return inserts, deletes


def planted_query(path: Path, mode: str, top, max_results=None) -> dict:
    query = {
        "graph": {"path": str(path)},
        "k": K,
        "theta_left": PLANTED_THETA,
        "theta_right": PLANTED_THETA,
        "mode": mode,
    }
    if top is not None:
        query["top"] = top
    if max_results is not None:
        query["max_results"] = max_results
    return query


DIVORCE_QUERY = {
    "graph": {"dataset": "divorce"},
    "k": K,
    "theta_left": DIVORCE_THETA,
    "theta_right": DIVORCE_THETA,
}


# ---------------------------------------------------------------------- #
# Transports
# ---------------------------------------------------------------------- #

def http_send(port: int, method: str, path: str, body: Optional[dict] = None) -> Reply:
    """One request on a fresh connection; ``(0, None, 0)`` on a transport error."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        data = response.read()
        return response.status, json.loads(data), len(data)
    except (OSError, http.client.HTTPException, ValueError):
        return 0, None, 0
    finally:
        connection.close()


class InProcess:
    """The daemon's POST routes, called directly on a :class:`QueryService`."""

    def __init__(self, service) -> None:
        self.service = service

    def __call__(self, method: str, path: str, body: dict) -> Reply:
        from repro.service.query import QueryError, ServiceStaleCursorError
        from repro.service.sessions import SessionExpired

        service = self.service
        try:
            if path == "/v1/update":
                reply = service.update(body)
            elif path == "/v1/paginate":
                reply = service.next_page(
                    session_id=body.get("session_id"),
                    cursor=body.get("cursor"),
                    page_size=body.get("page_size"),
                )
            elif body.get("paginate"):
                reply = service.open_session(body["query"], page_size=body.get("page_size"))
            else:
                reply = service.enumerate(body["query"])
        except SessionExpired:
            return 404, None, 0
        except ServiceStaleCursorError:
            return 409, None, 0
        except QueryError:
            return 400, None, 0
        return 200, reply, 0


class Daemon:
    """``python -m repro.serve --port 0`` as a child process."""

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root = root
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Boot and wait until it listens; returns the seconds that took."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        start = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--port", "0"],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
            )
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if "listening on http://" not in line:
            raise RuntimeError(f"daemon did not start (see {self.log_path})")
        self.port = int(line.rsplit(":", 1)[1])
        return elapsed

    def send(self, method: str, path: str, body: Optional[dict] = None) -> Reply:
        return http_send(self.port, method, path, body)

    def stop(self) -> None:
        """Interrupt the daemon and wait until it has exited."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------- #
# The script
# ---------------------------------------------------------------------- #

class Tally:
    """Every request of one script: class, latency, size and outcome.

    ``attempted`` and the failed request numbers cover the whole script,
    set-up queries included; the samples cover the measured window only
    (:meth:`start_measuring`).
    """

    def __init__(self) -> None:
        self.classifier = pbstats.RequestClassifier()
        self.attempted = 0
        self._failed_ids: set = set()
        self.problems: List[str] = []
        self.start_measuring()

    def start_measuring(self) -> None:
        self.samples: List[Tuple[str, float]] = []
        self.sizes: List[int] = []
        self.client_ms = 0.0
        self.sent = 0

    @property
    def failed(self) -> int:
        return len(self._failed_ids)

    def fail(self, request_ids, problem: str) -> None:
        """Mark requests failed; a request counts once however often it fails."""
        self._failed_ids.update(request_ids)
        self.problems.append(problem)

    def absorb(self, other: "Tally") -> None:
        """Add another script's requests and failures to this one's counts."""
        offset = self.attempted
        self.attempted += other.attempted
        self._failed_ids.update(offset + rid for rid in other._failed_ids)
        self.problems.extend(other.problems)


class Script:
    """Replays the rounds through ``send`` and checks every reply."""

    def __init__(self, send: Callable, graph_path: Path, seed: int, divorce_keys) -> None:
        from repro.graph.io import read_edge_list

        self.send = send
        self.graph_path = graph_path
        # The benchmark's own copy of the planted graph, kept at the
        # daemon's epoch: the reference for the final answer check.
        self.graph = read_edge_list(graph_path)
        self.updates = UpdateScript(seed, self.graph)
        self.divorce_keys = divorce_keys
        self.tally = Tally()
        self.round = 0
        self.last_answers: Dict[str, List] = {}
        self.engine_counters: Dict[str, float] = {}
        self.one_shot = 0

    # -- one request --------------------------------------------------- #
    def request(self, path: str, body: dict,
                intent: Optional[str] = None) -> Tuple[int, Optional[dict]]:
        """Send one request; returns its number and its reply (``None`` if failed)."""
        start = time.perf_counter()
        status, reply, size = self.send("POST", path, body)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        tally = self.tally
        rid = tally.attempted
        tally.attempted += 1
        tally.sent += 1
        tally.client_ms += elapsed_ms
        if status != 200 or reply is None:
            tally.fail([rid], f"{path} answered {status}")
            return rid, None
        kind = tally.classifier.classify(path, body, reply)
        tally.samples.append((kind, elapsed_ms))
        tally.sizes.append(size)
        if intent is not None and kind != intent:
            tally.fail([rid], f"{path} was meant as {intent} but came back {kind}")
        if path == "/v1/enumerate" and not body.get("paginate"):
            self.one_shot += 1
            if not reply.get("cached"):
                self._count_engine(reply["status"])
        return rid, reply

    def _count_engine(self, status: dict) -> None:
        for key, value in status.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.engine_counters[key] = self.engine_counters.get(key, 0) + value

    # -- one round ----------------------------------------------------- #
    def first_query(self) -> None:
        """The query that loads, converts and preps the planted graph."""
        self.request("/v1/enumerate", {"query": planted_query(self.graph_path, "enumerate", None)})

    def run_round(self) -> None:
        self.round += 1
        inserts, deletes = self.updates.next_batch()
        self.graph.apply_batch(inserts, deletes)
        self.request(
            "/v1/update",
            {
                "graph": {"path": str(self.graph_path)},
                "insert": [list(edge) for edge in inserts],
                "delete": [list(edge) for edge in deletes],
            },
            intent="update",
        )
        documents = []
        for mode, top in MODES:
            documents.append((mode, planted_query(self.graph_path, mode, top), "update_query"))
        for index, (mode, top) in enumerate(MODES):
            fresh = 1000 + 3 * self.round + index
            documents.append(
                (None, planted_query(self.graph_path, mode, top, fresh), "cold_query")
            )
        first_replies = []
        for mode, query, intent in documents:
            rid, reply = self.request("/v1/enumerate", {"query": query}, intent=intent)
            first_replies.append(reply)
            if mode is not None:
                self.last_answers[mode] = (rid, reply and reply["solutions"])
        for (_, query, _), first in zip(documents, first_replies):
            rid, reply = self.request("/v1/enumerate", {"query": query}, intent="hot_query")
            if reply is not None and first is not None and reply["solutions"] != first["solutions"]:
                self.tally.fail([rid], "a result-cache hit differs from the answer it repeats")
        for _ in range(PAGINATIONS_PER_ROUND):
            self.paginate()

    def paginate(self) -> None:
        """One divorce session to exhaustion, live and resumed pages in turn."""
        rid, reply = self.request(
            "/v1/enumerate",
            {"query": DIVORCE_QUERY, "paginate": True, "page_size": PAGE_SIZE},
            intent="open",
        )
        rids = [rid]
        collected = []
        live = True
        while reply is not None:
            collected.extend(reply["solutions"])
            if reply["exhausted"]:
                self._count_engine(reply["status"])
                break
            body = {"cursor": reply["cursor"], "page_size": PAGE_SIZE}
            if live:
                body["session_id"] = reply["session_id"]
            rid, reply = self.request("/v1/paginate", body, intent="page" if live else "resume")
            rids.append(rid)
            live = not live
        keys = [(tuple(left), tuple(right)) for left, right in collected]
        if reply is None or len(set(keys)) != len(keys) or set(keys) != self.divorce_keys:
            self.tally.fail(rids, "divorce pages do not concatenate to the library's MBP set")

    # -- after the timed window ---------------------------------------- #
    def check_final_answers(self) -> Tuple[int, str]:
        """Last round's one-shot answers against the library on the same epoch."""
        from repro.core.itraversal import ITraversal

        answers = {}
        for mode, top in MODES:
            algorithm = ITraversal(
                self.graph, K, theta_left=PLANTED_THETA, theta_right=PLANTED_THETA,
                mode=mode, top=top, jobs=1,
            )
            expected = [[sorted(s.left), sorted(s.right)] for s in algorithm.run()]
            rid, served = self.last_answers[mode]
            if mode == "enumerate":
                expected, served = sorted(expected), sorted(served or [])
            if served != expected:
                self.tally.fail([rid], f"final {mode} answer differs from the library's")
            answers[mode] = expected
        return len(answers["enumerate"]), pbstats.digest_of(answers)


def divorce_reference() -> set:
    from repro.analysis.datasets import load_dataset
    from repro.core.itraversal import ITraversal

    algorithm = ITraversal(
        load_dataset("divorce"), K,
        theta_left=DIVORCE_THETA, theta_right=DIVORCE_THETA, jobs=1,
    )
    return {solution.key() for solution in algorithm.run()}


def play(script: Script, seconds: float) -> List[float]:
    """Whole rounds while the next one fits in ``seconds``; returns round times.

    Rounds go on past ``seconds`` until :data:`MIN_PAGE_SAMPLES` pages
    were delivered, so the delay p90 always has ten samples beyond it —
    unless a request failed, which voids the run anyway.
    """
    round_times: List[float] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        script.run_round()
        round_times.append(time.perf_counter() - round_start)
        pages = sum(1 for kind, _ in script.tally.samples if kind in PAGE_CLASSES)
        fits = time.perf_counter() - started + round_times[-1] <= seconds
        if not fits and (pages >= MIN_PAGE_SAMPLES or script.tally.failed):
            return round_times


def play_rounds(script: Script, rounds: int) -> float:
    """Exactly ``rounds`` rounds; returns their wall time."""
    start = time.perf_counter()
    for _ in range(rounds):
        script.run_round()
    return time.perf_counter() - start


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #

def measure(seed: int, seconds: float, trace: bool, workdir: Path, root: Path):
    """Run ``service-mixed``; returns ``(e2e, per_layer, tally, info)``.

    Set-up is timed on :data:`BOOTS` daemon boots; the last daemon then
    serves whole rounds until ``seconds`` would be exceeded, but at least
    enough rounds for :data:`MIN_PAGE_SAMPLES` page deliveries.
    """
    graph_path = make_inputs(seed, workdir)
    divorce_keys = divorce_reference()
    if trace:
        return _measure_traced(seed, workdir, root, graph_path, divorce_keys)
    setups: List[float] = []
    daemons: List[Daemon] = []
    tally = Tally()  # requests of the boots whose daemon does not stay up
    try:
        for boot in range(BOOTS):
            daemon = Daemon(root, workdir / "daemon.log")
            daemons.append(daemon)
            listen_s = daemon.start()
            script = Script(daemon.send, graph_path, seed, divorce_keys)
            start = time.perf_counter()
            script.first_query()
            setups.append(listen_s + time.perf_counter() - start)
            if boot < BOOTS - 1:
                daemon.stop()
                tally.absorb(script.tally)
        script.tally.start_measuring()
        round_times = play(script, seconds)
    finally:
        for daemon in daemons:
            daemon.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    digest = script.check_final_answers()
    measured = script.tally
    tally.absorb(measured)
    classes = pbstats.group_by_class(measured.samples)
    delays = [value for name in PAGE_CLASSES for value in classes[name]]
    e2e = {
        "setup_s": pbstats.median(setups),
        "run_s": pbstats.median(round_times),
        "delay_ms_p50": pbstats.percentile(delays, 50),
        "delay_ms_p90": pbstats.tail_percentile(delays, 90)[1],
        "peak_rss_mb": peak_rss_mb,
    }
    summary = [
        ("requests_per_s", measured.sent / sum(round_times), "1/s"),
        ("failed_frac", pbstats.failed_frac(tally.attempted, tally.failed), "1"),
    ]
    for name in pbstats.REQUEST_CLASSES:
        stats = pbstats.summarize(classes[name])
        summary.append((f"{name}_ms_p50", stats.get("p50"), f"ms n={stats['n']}"))
    page = pbstats.summarize(classes["page"])
    if "tail" in page:
        summary.append((f"page_ms_p{page['tail_q']:g}", page["tail"], f"ms n={page['n']}"))
    info = {
        "graph": f"planted-{seed}: {SIDE}x{SIDE}, 2 blocks {BLOCK}x{BLOCK}, "
                 f"{BACKGROUND_EDGES} background edges; divorce at its spec seed",
        "rounds": len(round_times),
        "requests": measured.sent,
        "delay_samples": len(delays),
        "digest": digest,
        "inputs": [graph_path],
        "summary": summary,
    }
    return e2e, None, tally, info


def _measure_traced(seed, workdir, root, graph_path, divorce_keys):
    from repro.service.query import QueryService

    # Daemon leg, untraced: the HTTP layer's own share from /v1/metrics.
    daemon = Daemon(root, workdir / "daemon.log")
    try:
        daemon.start()
        script = Script(daemon.send, graph_path, seed, divorce_keys)
        script.first_query()
        before = daemon.send("GET", "/v1/metrics")[1]
        script.tally.start_measuring()
        play_rounds(script, TRACED_ROUNDS)
        after = daemon.send("GET", "/v1/metrics")[1]
    finally:
        daemon.stop()
    http_tally = script.tally
    service_ms = _service_ms(after) - _service_ms(before)
    http_extra = {
        "http.self_ms_per_request": (http_tally.client_ms - service_ms) / http_tally.sent,
        "http.response_bytes_p50": pbstats.percentile(http_tally.sizes, 50),
    }

    # In-process legs: the same rounds untraced, then traced.
    def leg(tracer=None):
        service = QueryService()
        try:
            if tracer is not None:
                pbtrace.install(tracer)
            script = Script(InProcess(service), graph_path, seed, divorce_keys)
            script.first_query()
            elapsed = play_rounds(script, TRACED_ROUNDS)
            return script, elapsed, service.stats()
        finally:
            if tracer is not None:
                tracer.restore()
            service.close()

    plain, plain_s, _ = leg()
    tracer = pbtrace.Tracer()
    traced, traced_s, stats = leg(tracer)
    traced.check_final_answers()
    extra = dict(http_extra)
    extra.update({
        "registry.plan_hits": stats["plan_hits"],
        "registry.plans_built": stats["plans_built"],
        "registry.plans_repaired": stats["plans_repaired"],
        "service.result_hit_ratio": pbstats.ratio(stats["result_cache_hits"], traced.one_shot),
    })
    per_layer = pbtrace.layer_metrics(
        tracer, traced.engine_counters, overhead=traced_s / plain_s - 1, extra=extra
    )
    tally = Tally()
    for part in (http_tally, plain.tally, traced.tally):
        tally.absorb(part)
    info = {"traced_rounds": TRACED_ROUNDS, "http_requests": http_tally.sent,
            "inputs": [graph_path]}
    return None, per_layer, tally, info


def _service_ms(snapshot: Optional[dict]) -> float:
    """Sum of the daemon's ``service_request_ms`` histograms, all routes."""
    if not snapshot:
        return 0.0
    return sum(
        data["sum_ms"]
        for key, data in snapshot.get("histograms", {}).items()
        if key.startswith("service_request_ms")
    )
