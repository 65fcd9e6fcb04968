"""The two library workloads: first-1000 on opsahl and the θ run on writer.

One *cycle* enumerates every graph of the run once.  Set-up (read the
edge list, convert to the backend, prep — the ``ITraversal`` constructor)
is timed separately, several times per graph, and is not part of
``run_s``.  Generating the stand-in graphs and writing them to disk is
input generation and is timed nowhere.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional

import pbstats
import pbtrace

K = 1
#: Set-ups per graph; ``setup_s`` is their median.
SETUP_REPEATS = 15


@dataclass(frozen=True)
class LibraryWorkload:
    """One library workload: which stand-in, how many graphs, which run.

    ``relabel`` selects how the seed makes the graphs.  ``False``: graph
    ``i`` is the stand-in generated at ``seed + 1000 i`` (graph 0 is the
    spec's own graph at the default seed; the others sit far away so that
    runs of neighbouring seeds share no graph).  ``True``: every graph is
    the spec's own stand-in under a seeded random relabeling of both
    sides, which keeps the MBP set (up to the labels) and varies the
    order the engine meets candidates in.  The θ run on writer uses it
    because its cost swings with the generated structure (1960 to 2706
    MBPs across seeds) far more than with the labels.
    """

    dataset: str
    graphs: int
    max_results: Optional[int]
    theta: int
    relabel: bool


WORKLOADS = {
    "first1000-opsahl": LibraryWorkload(
        "opsahl", graphs=2, max_results=1000, theta=0, relabel=False
    ),
    "theta-writer": LibraryWorkload(
        "writer", graphs=3, max_results=None, theta=4, relabel=True
    ),
}


def default_seed(name: str) -> int:
    from repro.analysis.datasets import get_spec

    return get_spec(WORKLOADS[name].dataset).seed


def make_inputs(workload: LibraryWorkload, seed: int, workdir: Path) -> List[Path]:
    """Write the run's stand-in graphs as edge lists; returns their paths."""
    from repro.analysis.datasets import load_dataset
    from repro.graph.bipartite import BipartiteGraph
    from repro.graph.io import write_edge_list

    paths = []
    for index in range(workload.graphs):
        if workload.relabel:
            base = load_dataset(workload.dataset)
            rng = random.Random(f"{workload.dataset}/{seed}/{index}")
            left = list(range(base.n_left))
            right = list(range(base.n_right))
            rng.shuffle(left)
            rng.shuffle(right)
            graph = BipartiteGraph(
                base.n_left, base.n_right,
                edges=[(left[v], right[u]) for v, u in base.edges()],
            )
            name = f"{workload.dataset}-relabel-{seed}-{index}"
        else:
            graph_seed = seed + 1000 * index
            graph = load_dataset(workload.dataset, graph_seed)
            name = f"{workload.dataset}-{graph_seed}"
        path = workdir / f"{name}.txt"
        write_edge_list(graph, path)
        paths.append(path)
    return paths


def set_up(workload: LibraryWorkload, path: Path):
    """Load → convert → prep: the work before the first result can come."""
    from repro.core.itraversal import ITraversal
    from repro.graph import io

    graph = io.read_edge_list(path)
    algorithm = ITraversal(
        graph,
        K,
        theta_left=workload.theta,
        theta_right=workload.theta,
        max_results=workload.max_results,
        jobs=1,
    )
    return graph, algorithm


def enumerate_once(workload: LibraryWorkload, algorithm, clock=time.perf_counter):
    """One timed enumeration: ``(solutions, gaps, seconds)``.

    ``gaps`` are the delays between consecutive MBPs, the first measured
    from the start of the run.  A capped run stops its clock at the last
    MBP; an uncapped one when the enumeration is exhausted.
    """
    solutions = []
    gaps = []
    start = last = clock()
    for solution in algorithm.run():
        now = clock()
        gaps.append(now - last)
        last = now
        solutions.append(solution)
    end = last if workload.max_results is not None else clock()
    return solutions, gaps, end - start


def check(workload: LibraryWorkload, graph, solutions) -> List[str]:
    """Problems with one run's output (empty when it is correct)."""
    from repro.core.verify import check_all_solutions

    problems = []
    try:
        check_all_solutions(graph, solutions, K)
    except AssertionError as error:
        problems.append(str(error))
    small = [s for s in solutions if min(len(s.left), len(s.right)) < workload.theta]
    if small:
        problems.append(f"{len(small)} MBPs below θ={workload.theta}")
    if workload.max_results is not None and len(solutions) != workload.max_results:
        problems.append(f"{len(solutions)} MBPs, expected {workload.max_results}")
    return problems


class Outcome:
    """Per-run tallies: operations attempted and failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: List[tuple] = []

    def judge(self, workload: LibraryWorkload, outputs) -> None:
        """Check one cycle's ``(graph, solutions)`` pairs, one operation each.

        An enumeration fails if any MBP is not a maximal k-biplex meeting
        θ, on a duplicate, on a short count, or when its digest differs
        from the first cycle of this run.
        """
        for index, (graph, solutions) in enumerate(outputs):
            problems = check(workload, graph, solutions)
            digest = pbstats.solution_digest((s.left, s.right) for s in solutions)
            if index < len(self.digests):
                if digest != self.digests[index]:
                    problems.append(f"graph {index}: output differs from the first cycle")
            else:
                self.digests.append(digest)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)


def run_cycle(workload, paths, setup_repeats: int = SETUP_REPEATS):
    """Set up and enumerate every graph once; returns timings and outputs."""
    setups: List[float] = []
    gaps: List[float] = []
    run_s = 0.0
    counters: dict = {}
    outputs = []
    for path in paths:
        for _ in range(setup_repeats):
            start = time.perf_counter()
            graph, algorithm = set_up(workload, path)
            setups.append(time.perf_counter() - start)
        solutions, run_gaps, seconds = enumerate_once(workload, algorithm)
        gaps.extend(run_gaps)
        run_s += seconds
        for key, value in asdict(algorithm.stats).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counters[key] = counters.get(key, 0) + value
        outputs.append((graph, solutions))
    return {"setups": setups, "gaps": gaps, "run_s": run_s, "counters": counters,
            "outputs": outputs}


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one library workload; returns ``(e2e, per_layer, outcome, info)``."""
    workload = WORKLOADS[name]
    paths = make_inputs(workload, seed, workdir)
    outcome = Outcome()
    cycles = []
    started = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        cycle = run_cycle(workload, paths)
        # Judged (and its MBPs dropped) before the next cycle starts, so
        # the peak memory does not grow with the number of cycles.
        outcome.judge(workload, cycle.pop("outputs"))
        cycles.append(cycle)
        cycle_seconds = time.perf_counter() - cycle_start
        # Whole cycles only, and only those that fit in the run's time.
        if time.perf_counter() - started + cycle_seconds > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gaps_ms = [gap * 1000.0 for cycle in cycles for gap in cycle["gaps"]]
    run_s = pbstats.median(cycle["run_s"] for cycle in cycles)
    e2e = {
        "setup_s": pbstats.median(s for cycle in cycles for s in cycle["setups"]),
        "run_s": run_s,
        "delay_ms_p50": pbstats.percentile(gaps_ms, 50),
        "delay_ms_p90": pbstats.tail_percentile(gaps_ms, 90)[1],
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "graphs": [_describe(path) for path in paths],
        "cycles": len(cycles),
        "mbps_per_cycle": len(cycles[0]["gaps"]),
        "delay_samples": len(gaps_ms),
        "inputs": paths,
    }
    per_layer = None
    if trace:
        with pbtrace.Tracer() as tracer:
            pbtrace.install(tracer)
            traced = run_cycle(workload, paths, setup_repeats=1)
        outcome.judge(workload, traced.pop("outputs"))
        per_layer = pbtrace.layer_metrics(
            tracer, traced["counters"], overhead=traced["run_s"] / cycles[0]["run_s"] - 1
        )
    info["summary"] = [
        ("failed_frac", pbstats.failed_frac(outcome.attempted, outcome.failed), "1")
    ]
    return e2e, per_layer, outcome, info


def _describe(path: Path) -> str:
    from repro.graph import io

    graph = io.read_edge_list(path)
    return f"{path.stem}: {graph.n_left}x{graph.n_right}, {graph.num_edges} edges"
