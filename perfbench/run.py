"""Run one benchmark workload and print its metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload first1000-opsahl --seed 14 --seconds 30 --trace 0

Workloads and metric names live in ``BENCHMARK.json`` at the root.  With
``--trace 0`` the run reports the end-to-end metrics, measured with no
wrappers installed; with ``--trace 1`` it reports the per-layer metrics of
a separate traced pass.  The lines before the last one are for people: the
inputs, the machine, and every metric with its unit.  The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.

Run files (generated inputs, daemon logs, per-run records and the
per-seed output digests that later runs of the same seed must match) go
to ``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="input seed (default: the dataset spec's own seed)",
    )
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    """What a result depends on besides the code: never compare across these."""
    from repro.graph.protocol import default_backend
    from repro.prep import default_prep

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": default_backend(),
        "prep": default_prep(),
        "jobs": 1,
    }


def check_digests(key: str, inputs: list, digests: list) -> list:
    """Compare this run's output digests with earlier runs on the same inputs.

    The key names the workload, its seed and the content of its generated
    input files, so a change to input generation starts a fresh record
    instead of reading as a wrong answer.
    """
    import hashlib

    content = hashlib.sha256()
    for input_path in inputs:
        content.update(Path(input_path).read_bytes())
    key = f"{key}/{content.hexdigest()[:16]}"
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    digests = [list(d) for d in digests]
    if key in known:
        if known[key] != digests:
            return [f"output digests differ from an earlier run of {key}"]
        return []
    known[key] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return []


def run_workload(args, workdir: Path):
    """``(metrics, attempted, failed, problems, info, seed, digest_key, digests)``."""
    if args.workload == "service-mixed":
        import pbservice

        seed = pbservice.DEFAULT_SEED if args.seed is None else args.seed
        e2e, per_layer, tally, info = pbservice.measure(
            seed, args.seconds, bool(args.trace), workdir, ROOT
        )
        digests = [info["digest"]] if "digest" in info else []
        key = f"{args.workload}/{seed}/rounds={info.get('rounds')}"
        return (e2e if not args.trace else per_layer, tally.attempted, tally.failed,
                tally.problems, info, seed, key, digests)
    import pblib

    seed = pblib.default_seed(args.workload) if args.seed is None else args.seed
    e2e, per_layer, outcome, info = pblib.measure(
        args.workload, seed, args.seconds, bool(args.trace), workdir
    )
    return (e2e if not args.trace else per_layer, outcome.attempted, outcome.failed,
            outcome.problems, info, seed, f"{args.workload}/{seed}", outcome.digests)


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"error: {ROOT} is not a source checkout (src/repro or BENCHMARK.json "
              "missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    args = parse_args(argv, spec)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = STATE / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    started = time.perf_counter()
    try:
        metrics, attempted, failed, problems, info, seed, key, digests = run_workload(
            args, workdir
        )
    except Exception:  # the run is void: report why, print no result
        traceback.print_exc()
        return 1
    digest_problems = check_digests(key, info.pop("inputs"), digests)
    if digest_problems:
        failed += 1
        attempted += 1
        problems += digest_problems
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1

    facts = machine_facts()
    print(f"# workload {args.workload} seed {seed} trace {args.trace} "
          f"seconds {args.seconds:g} wall {time.perf_counter() - started:.1f}s")
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    summary = info.pop("summary", [])
    print(f"# inputs {json.dumps(info, sort_keys=True, default=str)}")
    for problem in problems:
        print(f"# FAILED {problem}")
    for metric in wanted:
        print(f"{metric['name']} {metrics[metric['name']]} {metric['unit']}")
    for name, value, unit in summary:
        print(f"{name} {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    record = STATE / "runs" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(
        {"machine": facts, "inputs": info, "problems": problems, "result": result},
        indent=1, sort_keys=True, default=str,
    ))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
