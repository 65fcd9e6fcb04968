"""Command-line interface.

Five subcommands cover the library's day-to-day uses:

* ``repro-mbp enumerate``  — enumerate maximal k-biplexes of an edge-list
  file (or a registry dataset) and print them (``--json`` emits one JSON
  document: the solutions and the status block the service returns);
* ``repro-mbp query``      — the service front end: run a paginated query
  against a running daemon (``--server``) or an in-process service,
  inspect daemon statistics, cancel sessions, apply edge updates;
* ``repro-mbp serve``      — run the HTTP/JSON daemon (same flags as
  ``python -m repro.serve``);
* ``repro-mbp experiment`` — run one of the per-figure experiment drivers
  and print the paper-style table;
* ``repro-mbp datasets``   — list the dataset registry (the Table 1 stand-ins).

``enumerate`` is ``query run`` on an in-process
:class:`repro.service.QueryService`, unpaginated.  The two share one flag
builder (:func:`_add_query_flags`), one request path (:func:`_run_query`)
and one formatter (:func:`_print_solutions`), so they validate, trace and
report a query the same way.  ``--jobs`` (or ``REPRO_JOBS``) runs the
sharded parallel engine (:mod:`repro.parallel`) and ``--prep`` (or
``REPRO_PREP``) picks the preprocessing pipeline (:mod:`repro.prep`),
whose reduction sizes the summary's ``# prep=`` line reports.

Run ``repro-mbp <subcommand> --help`` for the full option list.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import List, Optional, Sequence

from .analysis.datasets import ALL_DATASETS, table1_rows
from .bench.experiments import EXPERIMENTS
from .bench.reporting import format_table
from .core.itraversal import ITraversal


def _add_query_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the flags ``enumerate`` and ``query run`` share: one query document.

    ``--prep`` and ``--mode`` deliberately have no argparse ``choices``:
    :meth:`repro.service.QueryService.normalize` validates every field, the
    ``REPRO_PREP`` / ``REPRO_JOBS`` defaults included, and its message
    reaches stderr as one ``error:`` line.
    """
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="edge-list file (see repro.graph.io)")
    source.add_argument("--dataset", choices=ALL_DATASETS, help="registry dataset name")
    parser.add_argument("-k", type=int, default=1, help="biplex parameter (default 1)")
    parser.add_argument(
        "--variant", default="full", choices=ITraversal.VARIANTS, help="iTraversal variant"
    )
    parser.add_argument("--theta", type=int, default=0, help="min size of both sides")
    parser.add_argument(
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
    parser.add_argument(
        "--top", type=int, default=None, metavar="N", help="how many solutions for --mode top-k"
    )
    parser.add_argument("--max-results", type=int, default=None)
    parser.add_argument("--time-limit", type=float, default=None, help="seconds")
    parser.add_argument(
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
    parser.add_argument(
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
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "request a phase trace from the service and include the last "
            "response's in the JSON output (parse → load → plan → traverse "
            "→ serialize for a one-shot query, traverse → serialize for a "
            "later page, plus per-shard worker spans under --jobs); a no-op "
            "when the service's REPRO_OBS is off"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mbp",
        description="Maximal k-biplex enumeration (SIGMOD 2022 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    enumerate_parser = subparsers.add_parser(
        "enumerate", help="enumerate maximal k-biplexes of a graph"
    )
    _add_query_flags(enumerate_parser)
    enumerate_parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only the summary, not the biplexes (with --json: no solutions key)",
    )
    enumerate_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit one JSON document (solutions + the full status block: "
            "traversal counters, truncation flags, shard count, prep "
            "reduction sizes) instead of text — the document of "
            "query run --format json"
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
    _add_query_flags(run_parser)
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


def _command_experiment(args: argparse.Namespace) -> int:
    rows = EXPERIMENTS[args.name]()
    print(format_table(rows, title=f"Experiment {args.name}"))
    return 0


def _command_datasets(_: argparse.Namespace) -> int:
    print(format_table(table1_rows(), title="Dataset registry (Table 1 stand-ins)"))
    return 0


# --------------------------------------------------------------------- #
# The service front end: `enumerate` and the `query` family.
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


def _graph_spec(args: argparse.Namespace) -> dict:
    return {"dataset": args.dataset} if args.dataset else {"path": args.input}


def _query_document(args: argparse.Namespace) -> dict:
    return {
        "graph": _graph_spec(args),
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


def _run_query(
    query: dict,
    *,
    trace: bool = False,
    server: Optional[str] = None,
    page_size: Optional[int] = None,
):
    """Run the query on a daemon or an in-process service, paginating when asked.

    Returns ``(solutions, status, trace)`` — ``trace`` is the last
    response's trace block (``None`` unless ``trace`` was honoured).
    """
    paginate = page_size is not None
    if server is not None:
        body = {"query": query, "trace": trace}
        if paginate:
            body.update(paginate=True, page_size=page_size)
        response = _server_request(server, "POST", "/v1/enumerate", body)

        def next_page(previous: dict) -> dict:
            return _server_request(
                server,
                "POST",
                "/v1/paginate",
                {
                    "session_id": previous["session_id"],
                    "cursor": previous["cursor"],
                    "page_size": page_size,
                    "trace": trace,
                },
            )

    else:
        from .service import Budgets, QueryService

        # Unbudgeted, and uncached: a one-shot process never reads its result
        # cache back, and storing a result deep-copies the whole solution list.
        service = QueryService(budgets=Budgets(max_page_size=10**9), result_cache_capacity=0)
        query = {**query, "trace": trace}
        if paginate:
            response = service.open_session(query, page_size=page_size)
        else:
            response = service.enumerate(query)

        def next_page(previous: dict) -> dict:
            return service.next_page(
                session_id=previous["session_id"],
                cursor=previous["cursor"],
                page_size=page_size,
                want_trace=trace,
            )

    solutions = list(response["solutions"])
    while paginate and not response["exhausted"]:
        response = next_page(response)
        solutions.extend(response["solutions"])
    return solutions, response["status"], response.get("trace")


def _print_solutions(solutions, status, fmt: str, trace_block=None, quiet: bool = False) -> None:
    """Render one query's answer as a ``table``, ``csv`` rows or one ``json`` document.

    ``quiet`` drops the table's listing (the ``#`` summary lines stay) or
    the JSON document's ``solutions`` key.
    """
    if fmt == "json":
        document = {"num_solutions": len(solutions), "status": status}
        if not quiet:
            document["solutions"] = solutions
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
    if not quiet:
        for left, right in solutions:
            left_text = ",".join(map(str, left))
            right_text = ",".join(map(str, right))
            print(f"L: [{left_text}]  R: [{right_text}]")
    max_left = max((len(left) for left, _ in solutions), default=0)
    max_right = max((len(right) for _, right in solutions), default=0)
    prep = status.get("prep") or {}
    print(
        f"# solutions={len(solutions)} max_left={max_left} max_right={max_right} "
        f"links={status['num_links']} "
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


def _command_enumerate(args: argparse.Namespace) -> int:
    """``query run`` on an in-process service, unpaginated, as a table or JSON."""
    try:
        solutions, status, trace_block = _run_query(_query_document(args), trace=args.trace)
    except ValueError as error:  # QueryError: a rejected field or an unreadable graph file
        print(f"error: {error}", file=sys.stderr)
        return 2
    fmt = "json" if args.json else "table"
    _print_solutions(solutions, status, fmt, trace_block=trace_block, quiet=args.quiet)
    return 0


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
    document = {
        "graph": _graph_spec(args),
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
        solutions, status, trace_block = _run_query(
            _query_document(args),
            trace=args.trace,
            server=args.server,
            page_size=args.page_size,
        )
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
