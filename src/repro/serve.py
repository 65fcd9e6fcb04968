"""``python -m repro.serve`` — run the enumeration query daemon.

Thin argparse shell around
:class:`repro.service.http.ServiceHTTPServer`: build the registry /
session table / budgets from flags, bind, serve until interrupted.  The
CLI twin is ``repro-mbp serve`` (same flags); ``repro-mbp query --server``
is the matching client.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .obs import SlowQueryLog
from .service.http import ServiceHTTPServer
from .service.query import Budgets, QueryService
from .service.registry import (
    DEFAULT_GRAPH_CAPACITY,
    DEFAULT_PLAN_CAPACITY,
    HotGraphRegistry,
)
from .service.sessions import (
    DEFAULT_SESSION_CAPACITY,
    DEFAULT_TTL_SECONDS,
    SessionTable,
)


def build_arg_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """The daemon's flags; reused by the ``repro-mbp serve`` subcommand."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="python -m repro.serve",
            description="HTTP/JSON daemon for maximal k-biplex enumeration queries",
        )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8732, help="bind port (default 8732; 0 = ephemeral)"
    )
    parser.add_argument(
        "--registry-capacity",
        type=int,
        default=DEFAULT_GRAPH_CAPACITY,
        help="hot graphs kept resident (LRU)",
    )
    parser.add_argument(
        "--plan-capacity",
        type=int,
        default=DEFAULT_PLAN_CAPACITY,
        help="prepared plans kept resident (LRU)",
    )
    parser.add_argument(
        "--session-ttl",
        type=float,
        default=DEFAULT_TTL_SECONDS,
        help="idle seconds before a session is evicted (its cursor still resumes)",
    )
    parser.add_argument(
        "--session-capacity",
        type=int,
        default=DEFAULT_SESSION_CAPACITY,
        help="maximum live sessions (LRU eviction past it)",
    )
    parser.add_argument(
        "--max-results-cap",
        type=int,
        default=None,
        help="server-side ceiling on any query's max_results",
    )
    parser.add_argument(
        "--time-limit-cap",
        type=float,
        default=None,
        help="server-side ceiling on any query's time_limit (seconds)",
    )
    parser.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="REQ_PER_SEC",
        help=(
            "per-client request rate limit (429 + Retry-After past it; "
            "default: the REPRO_RATE_LIMIT environment variable; unset = "
            "no rate limiting)"
        ),
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        help=(
            "log queries at/over this wall time to the slow-query log "
            "(default: the REPRO_SLOW_QUERY_MS environment variable; "
            "unset = no slow-query records)"
        ),
    )
    parser.add_argument(
        "--slow-query-log",
        default=None,
        metavar="PATH",
        help=(
            "JSON-lines sink for slow-query and error records (default: "
            "REPRO_SLOW_QUERY_LOG, falling back to stderr)"
        ),
    )
    return parser


def service_from_args(args: argparse.Namespace) -> QueryService:
    slow_log = SlowQueryLog.from_env()
    if getattr(args, "slow_query_ms", None) is not None:
        slow_log.threshold_ms = args.slow_query_ms
    if getattr(args, "slow_query_log", None):
        slow_log.path = args.slow_query_log
    return QueryService(
        registry=HotGraphRegistry(
            capacity=args.registry_capacity, plan_capacity=args.plan_capacity
        ),
        sessions=SessionTable(
            ttl_seconds=args.session_ttl, capacity=args.session_capacity
        ),
        budgets=Budgets(
            max_results_cap=args.max_results_cap, time_limit_cap=args.time_limit_cap
        ),
        slow_log=slow_log,
    )


def serve(args: argparse.Namespace) -> int:
    """Run the daemon on parsed :func:`build_arg_parser` flags until interrupted.

    The one daemon start, behind both ``python -m repro.serve`` and
    ``repro-mbp serve``.  Returns the exit status: 2 when a flag value is
    invalid, 0 once the server stops.
    """
    try:
        service = service_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    ServiceHTTPServer(
        service, host=args.host, port=args.port, rate_limit=args.rate_limit
    ).run()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return serve(build_arg_parser().parse_args(list(argv) if argv is not None else None))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
