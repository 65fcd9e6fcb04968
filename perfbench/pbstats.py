"""The benchmark's own arithmetic: percentiles, digests, failure share, classes.

Nothing here imports :mod:`repro`; every function is a pure computation
over plain Python values so that ``test_perfbench.py`` can pin it down
without running a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``.

    Nearest rank returns a sample that was actually measured, never an
    interpolation between two of them.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(values)
    # The epsilon keeps q = 100 (n - t) / n from rounding up a rank.
    rank = max(1, math.ceil(q * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1]


def highest_percentile(n: int, tail: int = TAIL_SAMPLES) -> float:
    """The highest percentile with at least ``tail`` of ``n`` samples beyond it.

    With nearest rank, the ``q``-th percentile of ``n`` samples has
    ``n - ceil(q n / 100)`` samples above it; the answer is the largest
    ``q`` for which that count is still ``tail``: ``100 (n - tail) / n``.
    Returns 0 when fewer than ``tail + 1`` samples exist (no tail can be
    reported at all).
    """
    if n <= tail:
        return 0.0
    return 100.0 * (n - tail) / n


def tail_percentile(values: Sequence[float], wanted: float) -> Tuple[float, float]:
    """``(q, value)``: ``wanted`` capped by :func:`highest_percentile`.

    A tail figure is only reported where ten samples back it; with fewer
    samples the cap moves the reported percentile down and the name that
    is printed says which one it is.
    """
    q = min(wanted, highest_percentile(len(values)))
    if q <= 0:
        raise ValueError(
            f"{len(values)} samples cannot support any tail percentile "
            f"(need more than {TAIL_SAMPLES})"
        )
    return q, percentile(values, q)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("failed_frac needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the base is 0 (the layer did no work)."""
    return numerator / denominator if denominator else 0.0


def solution_digest(keys: Iterable[Tuple[Sequence[int], Sequence[int]]]) -> Tuple[int, str]:
    """``(count, sha256)`` of a solution set given as ``(left, right)`` keys.

    The keys are sorted first, so the digest names the *set*, not the
    order in which it was produced.
    """
    canonical = sorted((tuple(sorted(left)), tuple(sorted(right))) for left, right in keys)
    return len(canonical), digest_of(canonical)


def digest_of(value) -> str:
    """sha256 of the compact, key-sorted JSON form of ``value``."""
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------- #
# Service request classes
# ---------------------------------------------------------------------- #

#: Every class a service request falls in.
REQUEST_CLASSES = (
    "update", "update_query", "cold_query", "hot_query", "open", "page", "resume"
)


def plan_key(query: dict) -> tuple:
    """The part of a query document the daemon's plan cache keys on.

    Mirrors the registry's plan key (graph, k, thresholds, prep, objective
    mode); ``max_results`` and ``top`` are deliberately absent — varying
    them misses the result cache but hits the plan cache.
    """
    return (
        json.dumps(query["graph"], sort_keys=True),
        query.get("k"),
        query.get("theta_left", 0),
        query.get("theta_right", 0),
        query.get("prep"),
        query.get("mode", "enumerate"),
    )


class RequestClassifier:
    """Sorts the requests of one closed-loop script into latency classes.

    * ``update``: ``/v1/update``;
    * ``open``: the first page of a session (``/v1/enumerate`` with
      ``paginate``);
    * ``page``: a later page of a live session (``/v1/paginate`` with a
      ``session_id``, which is what ``repro-mbp query --server`` sends);
    * ``resume``: ``/v1/paginate`` with the cursor only;
    * ``hot_query``: a one-shot query the daemon answered from its result cache
      (``"cached": true`` in the reply);
    * ``update_query``: the first one-shot query per plan key since that
      graph's last update (it pays a plan repair plus the engine run);
    * ``cold_query``: any other one-shot query (plan-cache hit, result miss).

    Stateful: the update/first-query distinction depends on the order of
    the traffic, so one classifier sees one script from its start.
    """

    def __init__(self) -> None:
        self._planned: set = set()

    def classify(self, path: str, body: dict, reply: Optional[dict]) -> str:
        if path == "/v1/update":
            graph = json.dumps(body["graph"], sort_keys=True)
            self._planned = {key for key in self._planned if key[0] != graph}
            return "update"
        if path == "/v1/paginate":
            return "page" if body.get("session_id") else "resume"
        if path != "/v1/enumerate":
            raise ValueError(f"no request class for path {path!r}")
        key = plan_key(body["query"])
        if body.get("paginate"):
            self._planned.add(key)
            return "open"
        if reply is not None and reply.get("cached"):
            return "hot_query"
        if key in self._planned:
            return "cold_query"
        self._planned.add(key)
        return "update_query"


def group_by_class(samples: Iterable[Tuple[str, float]]) -> dict:
    """``{class: [latency, ...]}`` for ``(class, latency)`` samples."""
    grouped: dict = {name: [] for name in REQUEST_CLASSES}
    for name, value in samples:
        grouped[name].append(value)
    return grouped


def summarize(values: List[float]) -> dict:
    """Sample count, median and the rule-capped p90 of one latency list."""
    out = {"n": len(values)}
    if values:
        out["p50"] = percentile(values, 50)
        if len(values) > TAIL_SAMPLES:
            out["tail_q"], out["tail"] = tail_percentile(values, 90)
    return out
