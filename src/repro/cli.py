"""Command-line interface.

Five subcommands cover the library's day-to-day uses:

* ``repro-mbp enumerate``  — enumerate maximal k-biplexes of an edge-list
  file (or a registry dataset) and print or save them (``--json`` emits
  the machine-readable status block shared with the service);
* ``repro-mbp query``      — the service front end: run a paginated query
  against a running daemon (``--server``) or an in-process service,
  inspect daemon statistics, cancel sessions;
* ``repro-mbp serve``      — run the HTTP/JSON daemon (same flags as
  ``python -m repro.serve``);
* ``repro-mbp experiment`` — run one of the per-figure experiment drivers
  and print the paper-style table;
* ``repro-mbp datasets``   — list the dataset registry (the Table 1 stand-ins).

``enumerate`` runs on :class:`repro.graph.BipartiteGraph`, whose
word-parallel per-vertex bitmasks are the one adjacency store.  ``--jobs N`` (or
``REPRO_JOBS=N``) runs the enumeration on the sharded parallel engine
(:mod:`repro.parallel`) with ``N`` worker processes — the same solution
set for uncapped runs (a ``--max-results`` cap keeps the first N unique
arrivals, which may differ from serial's first N), one merged stats line.
``--prep {off,core,core+order}`` (or ``REPRO_PREP``) selects the
preprocessing pipeline (:mod:`repro.prep`): ``core`` (default) shrinks the
graph with the threshold-driven core/bitruss reduction before enumerating
— a no-op without ``--theta`` — and ``core+order`` additionally anchors
the traversal in degeneracy order; the summary line reports how many
vertices/edges the reduction removed.

Run ``repro-mbp <subcommand> --help`` for the full option list.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import List, Optional, Sequence

from .analysis.datasets import ALL_DATASETS, load_dataset, table1_rows
from .bench.experiments import EXPERIMENTS
from .bench.reporting import format_table
from .core.itraversal import ITraversal
from .core.objective import resolve_objective
from .core.verify import summarize_solutions
from .graph.io import read_edge_list
from .parallel import resolve_jobs
from .prep import resolve_prep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mbp",
        description="Maximal k-biplex enumeration (SIGMOD 2022 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    enumerate_parser = subparsers.add_parser(
        "enumerate", help="enumerate maximal k-biplexes of a graph"
    )
    source = enumerate_parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="edge-list file (see repro.graph.io)")
    source.add_argument("--dataset", choices=ALL_DATASETS, help="registry dataset name")
    enumerate_parser.add_argument("-k", type=int, default=1, help="biplex parameter (default 1)")
    enumerate_parser.add_argument(
        "--variant",
        default="full",
        choices=ITraversal.VARIANTS,
        help="iTraversal variant",
    )
    enumerate_parser.add_argument("--theta", type=int, default=0, help="min size of both sides")
    enumerate_parser.add_argument(
        "--mode",
        default=None,
        help=(
            "solver objective: 'enumerate' (default — every maximal "
            "k-biplex), 'maximum' (the single largest, ties broken by "
            "canonical order) or 'top-k' with --top N (the N largest by "
            "size).  The solver modes use the incumbent size as an extra "
            "pruning bound"
        ),
    )
    enumerate_parser.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="how many solutions to keep in --mode top-k",
    )
    enumerate_parser.add_argument("--max-results", type=int, default=None)
    enumerate_parser.add_argument("--time-limit", type=float, default=None, help="seconds")
    enumerate_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for the sharded parallel engine (default: the "
            "REPRO_JOBS environment variable, falling back to 1 = serial; "
            "0 = one worker per CPU core).  Uncapped runs enumerate exactly "
            "the serial solution set; with --max-results the cap keeps the "
            "first N unique solutions to *arrive*, which may differ from "
            "the serial run's first N"
        ),
    )
    enumerate_parser.add_argument(
        "--prep",
        default=None,
        help=(
            "preprocessing pipeline: 'core' (threshold-driven core/bitruss "
            "graph reduction, the default — a no-op without --theta), "
            "'core+order' (reduction plus degeneracy anchor ordering) or "
            "'off' (raw graph, canonical order).  All modes enumerate "
            "identical solution sets, reported in the input graph's vertex "
            "ids; the REPRO_PREP environment variable overrides the default"
        ),
    )
    enumerate_parser.add_argument(
        "--quiet", action="store_true", help="print only the summary, not the biplexes"
    )
    enumerate_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit one JSON document (solutions + the full status block: "
            "traversal counters, truncation flags, shard count, prep "
            "reduction sizes) instead of text — the same block the query "
            "service returns"
        ),
    )
    enumerate_parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record a phase trace (load → plan → traverse, plus "
            "per-shard worker spans under --jobs) and include it in the "
            "--json document; a no-op when REPRO_OBS is off"
        ),
    )

    experiment_parser = subparsers.add_parser(
        "experiment", help="run one of the paper's experiments"
    )
    experiment_parser.add_argument("name", choices=sorted(EXPERIMENTS), help="experiment id")

    subparsers.add_parser("datasets", help="list the dataset registry (Table 1 stand-ins)")

    query_parser = subparsers.add_parser(
        "query", help="query the enumeration service (daemon or in-process)"
    )
    query_sub = query_parser.add_subparsers(dest="query_command", required=True)

    run_parser = query_sub.add_parser(
        "run", help="run one enumeration query, paginating through the service"
    )
    run_source = run_parser.add_mutually_exclusive_group(required=True)
    run_source.add_argument("--input", help="edge-list file (see repro.graph.io)")
    run_source.add_argument("--dataset", choices=ALL_DATASETS, help="registry dataset name")
    run_parser.add_argument("-k", type=int, default=1, help="biplex parameter (default 1)")
    run_parser.add_argument(
        "--variant",
        default="full",
        choices=ITraversal.VARIANTS,
        help="iTraversal variant",
    )
    run_parser.add_argument("--theta", type=int, default=0, help="min size of both sides")
    run_parser.add_argument("--prep", default=None, help="preprocessing mode (see enumerate --help)")
    run_parser.add_argument("--jobs", type=int, default=None)
    run_parser.add_argument(
        "--mode",
        default=None,
        help="solver objective: enumerate (default), maximum, or top-k with --top N",
    )
    run_parser.add_argument(
        "--top", type=int, default=None, metavar="N", help="how many solutions for --mode top-k"
    )
    run_parser.add_argument("--max-results", type=int, default=None)
    run_parser.add_argument("--time-limit", type=float, default=None, help="seconds")
    run_parser.add_argument(
        "--page-size",
        type=int,
        default=None,
        help="paginate in pages of this size (default: one unpaginated request)",
    )
    run_parser.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help=(
            "base URL of a running daemon (e.g. http://127.0.0.1:8732); "
            "omitted = run against an in-process service"
        ),
    )
    run_parser.add_argument(
        "--format",
        default="table",
        choices=("table", "csv", "json"),
        help="output format (default table)",
    )
    run_parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "request a phase trace from the service and include the last "
            "response's in --format json output (parse → load → plan → "
            "traverse → serialize for a one-shot query, traverse → "
            "serialize for a later page); a no-op when the service's "
            "REPRO_OBS is off"
        ),
    )

    status_parser = query_sub.add_parser("status", help="print daemon statistics")
    status_parser.add_argument("--server", required=True, metavar="URL")

    stats_parser = query_sub.add_parser(
        "stats", help="scrape a daemon's /v1/metrics snapshot"
    )
    stats_parser.add_argument("--server", required=True, metavar="URL")
    stats_parser.add_argument(
        "--format",
        default="json",
        choices=("json", "text"),
        help="snapshot rendering (default json; text = one series per line)",
    )
    stats_parser.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-scrape every SECONDS until interrupted",
    )

    cancel_parser = query_sub.add_parser("cancel", help="cancel a live daemon session")
    cancel_parser.add_argument("session_id")
    cancel_parser.add_argument("--server", required=True, metavar="URL")

    update_parser = query_sub.add_parser(
        "update", help="apply an edge insert/delete batch to a daemon's hot graph"
    )
    update_source = update_parser.add_mutually_exclusive_group(required=True)
    update_source.add_argument("--input", help="edge-list file (see repro.graph.io)")
    update_source.add_argument(
        "--dataset", choices=ALL_DATASETS, help="registry dataset name"
    )
    update_parser.add_argument("--server", required=True, metavar="URL")
    update_parser.add_argument(
        "--insert",
        action="append",
        default=[],
        metavar="L:R",
        help="edge to insert, as left:right vertex ids (repeatable)",
    )
    update_parser.add_argument(
        "--delete",
        action="append",
        default=[],
        metavar="L:R",
        help="edge to delete, as left:right vertex ids (repeatable)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the HTTP/JSON query daemon (same flags as python -m repro.serve)"
    )
    from .serve import build_arg_parser as _build_serve_args

    _build_serve_args(serve_parser)
    return parser


def _command_enumerate(args: argparse.Namespace) -> int:
    # Resolved here (not at parser-build time) so an invalid REPRO_JOBS or
    # REPRO_PREP only affects the subcommand that uses it, with a clean
    # error message.  `--prep` deliberately has no argparse `choices`:
    # resolving it here funnels both the flag and the REPRO_PREP
    # environment variable through the same validation and error message.  `--mode` / `--top` follow the
    # same pattern via resolve_objective, shared with the query service.
    try:
        jobs = resolve_jobs(args.jobs)
        prep = resolve_prep(args.prep)
        mode, top = resolve_objective(args.mode, args.top)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from .obs import PRUNE_SITE_FIELDS, get_registry
    from .obs import span as obs_span
    from .obs import trace as obs_trace

    obs = get_registry()
    with obs_trace("cli.enumerate", enabled=args.trace and obs.enabled) as active:
        with obs_span("load"):
            if args.dataset:
                graph = load_dataset(args.dataset)
            else:
                graph = read_edge_list(args.input)
        with obs_span("plan"):
            try:
                algorithm = ITraversal(
                    graph,
                    args.k,
                    variant=args.variant,
                    theta_left=args.theta,
                    theta_right=args.theta,
                    max_results=args.max_results,
                    time_limit=args.time_limit,
                    jobs=jobs,
                    prep=prep,
                    mode=mode,
                    top=top,
                )
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        with obs_span("traverse"):
            solutions = algorithm.enumerate()
    stats = algorithm.stats
    plan = algorithm.prep
    if args.json:
        from .service.status import status_block

        document = {
            "solutions": [
                [sorted(solution.left), sorted(solution.right)] for solution in solutions
            ],
            "num_solutions": len(solutions),
            "status": status_block(
                stats,
                plan,
                mode=mode,
                obs={
                    "enabled": obs.enabled,
                    "pruned_by_site": {
                        site: getattr(stats, field_name, 0)
                        for site, field_name in PRUNE_SITE_FIELDS
                    },
                },
            ),
        }
        if active is not None:
            document["trace"] = active.to_dict()
        if args.quiet:
            document.pop("solutions")
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    if not args.quiet:
        for solution in solutions:
            left = ",".join(str(v) for v in sorted(solution.left))
            right = ",".join(str(u) for u in sorted(solution.right))
            print(f"L: [{left}]  R: [{right}]")
    summary = summarize_solutions(solutions)
    print(
        f"# solutions={summary['count']} max_left={summary['max_left']} "
        f"max_right={summary['max_right']} links={stats.num_links} "
        f"elapsed={stats.elapsed_seconds:.3f}s truncated={stats.truncated}"
    )
    if mode != "enumerate":
        print(
            f"# mode={mode} best_size={stats.best_size} "
            f"pruned_by_bound={stats.num_pruned_by_bound}"
        )
    print(
        f"# prep={plan.mode} removed_left={plan.removed_left} "
        f"removed_right={plan.removed_right} removed_edges={plan.removed_edges}"
    )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    rows = EXPERIMENTS[args.name]()
    print(format_table(rows, title=f"Experiment {args.name}"))
    return 0


def _command_datasets(_: argparse.Namespace) -> int:
    print(format_table(table1_rows(), title="Dataset registry (Table 1 stand-ins)"))
    return 0


# --------------------------------------------------------------------- #
# The service front end: `query run` / `query status` / `query cancel`.
# --------------------------------------------------------------------- #
def _server_request(server: str, method: str, path: str, payload=None) -> dict:
    """One JSON round trip to a daemon; raises RuntimeError on HTTP errors."""
    import urllib.error
    import urllib.request

    url = server.rstrip("/") + path
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as error:
        try:
            message = json.loads(error.read()).get("error", str(error))
        except Exception:
            message = str(error)
        raise RuntimeError(f"server error ({error.code}): {message}") from None
    except urllib.error.URLError as error:
        raise RuntimeError(f"cannot reach server {server}: {error.reason}") from None


def _query_document(args: argparse.Namespace) -> dict:
    if args.dataset:
        graph_spec = {"dataset": args.dataset}
    else:
        graph_spec = {"path": args.input}
    return {
        "graph": graph_spec,
        "k": args.k,
        "variant": args.variant,
        "theta_left": args.theta,
        "theta_right": args.theta,
        "prep": args.prep,
        "jobs": args.jobs,
        "max_results": args.max_results,
        "time_limit": args.time_limit,
        "mode": args.mode,
        "top": args.top,
    }


def _run_query(args: argparse.Namespace, query: dict):
    """Run the query, paginating when asked.

    Returns ``(solutions, status, trace)`` — ``trace`` is the last
    response's trace block (``None`` unless ``--trace`` was honoured).
    """
    want_trace = bool(getattr(args, "trace", False))
    if args.server is not None:
        if args.page_size is None:
            response = _server_request(
                args.server,
                "POST",
                "/v1/enumerate",
                {"query": query, "trace": want_trace},
            )
            return response["solutions"], response["status"], response.get("trace")
        response = _server_request(
            args.server,
            "POST",
            "/v1/enumerate",
            {
                "query": query,
                "paginate": True,
                "page_size": args.page_size,
                "trace": want_trace,
            },
        )
        solutions = list(response["solutions"])
        while not response["exhausted"]:
            response = _server_request(
                args.server,
                "POST",
                "/v1/paginate",
                {
                    "session_id": response["session_id"],
                    "cursor": response["cursor"],
                    "page_size": args.page_size,
                    "trace": want_trace,
                },
            )
            solutions.extend(response["solutions"])
        return solutions, response["status"], response.get("trace")

    from .service import Budgets, QueryService

    service = QueryService(budgets=Budgets(max_page_size=10**9))
    if want_trace:
        query = {**query, "trace": True}
    if args.page_size is None:
        response = service.enumerate(query)
        return response["solutions"], response["status"], response.get("trace")
    response = service.open_session(query, page_size=args.page_size)
    solutions = list(response["solutions"])
    while not response["exhausted"]:
        response = service.next_page(
            session_id=response["session_id"],
            cursor=response["cursor"],
            page_size=args.page_size,
            want_trace=want_trace,
        )
        solutions.extend(response["solutions"])
    return solutions, response["status"], response.get("trace")


def _print_solutions(solutions, status, fmt: str, trace_block=None) -> None:
    if fmt == "json":
        document = {
            "solutions": solutions,
            "num_solutions": len(solutions),
            "status": status,
        }
        if trace_block is not None:
            document["trace"] = trace_block
        print(json.dumps(document, indent=2, sort_keys=True))
        return
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["left", "right"])
        for left, right in solutions:
            writer.writerow(
                [" ".join(map(str, left)), " ".join(map(str, right))]
            )
        return
    for left, right in solutions:
        left_text = ",".join(map(str, left))
        right_text = ",".join(map(str, right))
        print(f"L: [{left_text}]  R: [{right_text}]")
    prep = status.get("prep") or {}
    print(
        f"# solutions={len(solutions)} links={status['num_links']} "
        f"elapsed={status['elapsed_seconds']:.3f}s truncated={status['truncated']}"
    )
    mode = status.get("mode")
    if mode and mode != "enumerate":
        print(
            f"# mode={mode} best_size={status.get('best_size')} "
            f"pruned_by_bound={status.get('num_pruned_by_bound')}"
        )
    if prep:
        print(
            f"# prep={prep['mode']} "
            f"removed_left={prep['removed_left']} removed_right={prep['removed_right']} "
            f"removed_edges={prep['removed_edges']}"
        )


def _command_query_stats(args: argparse.Namespace) -> int:
    """Scrape ``/v1/metrics`` once, or repeatedly under ``--watch``.

    Both ways a watch loop normally ends — Ctrl-C, or the downstream pager
    closing the pipe (``... --watch 1 | head``) — are clean exits (code 0,
    no traceback), not errors.
    """
    import time as time_module

    from .obs import render_snapshot_text

    try:
        while True:
            snapshot = _server_request(args.server, "GET", "/v1/metrics")
            if args.format == "text":
                sys.stdout.write(render_snapshot_text(snapshot))
                sys.stdout.flush()
            else:
                print(json.dumps(snapshot, indent=2, sort_keys=True))
            if args.watch is None:
                return 0
            time_module.sleep(max(args.watch, 0.05))
            print(f"--- {time_module.strftime('%H:%M:%S')} ---")
    except KeyboardInterrupt:
        return 0
    except OSError as error:
        import errno

        if not isinstance(error, BrokenPipeError) and error.errno != errno.EPIPE:
            raise
        # Point stdout at devnull so the interpreter's exit-time flush of
        # the dead pipe cannot raise a second time.  Skipped when stdout has
        # no real descriptor (captured/redirected streams).
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):
            pass
        return 0


def _parse_edge_flag(text: str) -> List[int]:
    left_text, sep, right_text = text.partition(":")
    try:
        if not sep:
            raise ValueError
        return [int(left_text), int(right_text)]
    except ValueError:
        raise ValueError(
            f"edge {text!r} is not of the form L:R (two integer vertex ids)"
        ) from None


def _command_query_update(args: argparse.Namespace) -> int:
    if args.dataset:
        graph_spec = {"dataset": args.dataset}
    else:
        graph_spec = {"path": args.input}
    document = {
        "graph": graph_spec,
        "insert": [_parse_edge_flag(text) for text in args.insert],
        "delete": [_parse_edge_flag(text) for text in args.delete],
    }
    response = _server_request(args.server, "POST", "/v1/update", document)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _command_query(args: argparse.Namespace) -> int:
    try:
        if args.query_command == "status":
            print(json.dumps(_server_request(args.server, "GET", "/v1/stats"), indent=2))
            return 0
        if args.query_command == "stats":
            return _command_query_stats(args)
        if args.query_command == "update":
            return _command_query_update(args)
        if args.query_command == "cancel":
            response = _server_request(
                args.server, "POST", "/v1/cancel", {"session_id": args.session_id}
            )
            print(json.dumps(response))
            return 0 if response.get("cancelled") else 1
        query = _query_document(args)
        solutions, status, trace_block = _run_query(args, query)
    except (RuntimeError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_solutions(solutions, status, args.format, trace_block=trace_block)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the ``repro-mbp`` console script."""
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "enumerate":
        return _command_enumerate(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "datasets":
        return _command_datasets(args)
    if args.command == "query":
        return _command_query(args)
    if args.command == "serve":
        from .serve import serve

        return serve(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
