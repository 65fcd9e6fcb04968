"""Process-wide metrics: counters and bounded histograms.

One :class:`MetricsRegistry` instance per process (``get_registry``)
holds the request- and run-scoped series: the HTTP daemon, the query
service's request envelope, the parallel coordinator and the engine (via
:func:`repro.obs.publish_run_stats`) publish into it.  Counts that a
component already keeps (the hot-graph registry's, the session table's,
the result cache's) are not copied here: ``/v1/metrics`` renders them
from the service's ``stats()`` next to this registry's snapshot, the
``service_sessions_live`` gauge in the snapshot's ``gauges`` section
among them.  The design constraints, in order:

* **stdlib only** — no client libraries, no exposition formats beyond
  JSON and a plain-text rendering;
* **cheap when disabled** — every mutator starts with one boolean check
  and returns; a disabled registry never allocates a series;
* **deterministic output** — histograms use *fixed* bucket edges chosen
  at registration (no dynamic rebucketing), and :meth:`snapshot` sorts
  every key, so two runs that perform the same operations produce
  byte-identical snapshots (bucket placement of wall-clock samples aside,
  the schema and series set are identical).

Series are keyed by ``name`` plus sorted ``label=value`` pairs, rendered
as ``name{a=x,b=y}`` — the flat key makes snapshots trivially greppable
and lets the CI smoke job assert exact counter values by string key.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

#: Default histogram bucket edges for request latencies, in milliseconds.
#: Fixed (never derived from the data) so snapshot schemas are stable.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


def series_key(name: str, labels: Dict[str, object]) -> str:
    """The flat ``name{a=x,b=y}`` series key (labels sorted by name)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class _Histogram:
    __slots__ = ("edges", "counts", "count", "sum")

    def __init__(self, edges: Tuple[float, ...]) -> None:
        self.edges = edges
        # One cumulative-style count per edge plus the overflow bucket.
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value

    def to_dict(self) -> dict:
        buckets = {f"le_{edge:g}": count for edge, count in zip(self.edges, self.counts)}
        buckets["le_inf"] = self.counts[-1]
        return {
            "buckets": buckets,
            "count": self.count,
            "sum_ms": round(self.sum, 3),
        }


class MetricsRegistry:
    """Thread-safe counters and fixed-bucket histograms.

    ``enabled=False`` turns every mutator into a single boolean check —
    the zero-cost-ish contract instrumented code relies on.  Readers
    (:meth:`snapshot`, :meth:`counter_value`) always work; on a disabled
    registry they see whatever was recorded while it was enabled.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, _Histogram] = {}

    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: int = 1, **labels: object) -> None:
        """Add ``value`` to a monotone counter series."""
        if not self.enabled:
            return
        key = series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> None:
        """Record ``value`` into a histogram series.

        The bucket edges are fixed at the series' first observation
        (``buckets`` defaults to :data:`DEFAULT_LATENCY_BUCKETS_MS`);
        later ``buckets`` arguments are ignored — edges never move.
        """
        if not self.enabled:
            return
        key = series_key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                edges = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS_MS
                histogram = self._histograms[key] = _Histogram(edges)
            histogram.observe(value)

    # ------------------------------------------------------------------ #
    def counter_value(self, name: str, **labels: object) -> int:
        """Current value of one counter series (0 when never incremented)."""
        with self._lock:
            return self._counters.get(series_key(name, labels), 0)

    def snapshot(self) -> dict:
        """One JSON-ready document of every series, keys sorted."""
        with self._lock:
            return {
                "counters": {key: self._counters[key] for key in sorted(self._counters)},
                # Filled by QueryService.metrics (service_sessions_live).
                "gauges": {},
                "histograms": {
                    key: self._histograms[key].to_dict()
                    for key in sorted(self._histograms)
                },
            }

    def reset(self) -> None:
        """Drop every series (tests and long-lived daemons' admin use)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


def render_snapshot_text(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` document as plain text.

    The daemon's ``/v1/metrics?format=text`` and the CLI, which re-renders
    a snapshot it fetched from a daemon, both render through it.
    """
    lines: List[str] = []
    for key, value in snapshot.get("counters", {}).items():
        lines.append(f"counter {key} {value}")
    for key, value in snapshot.get("gauges", {}).items():
        lines.append(f"gauge {key} {value:g}")
    for key, data in snapshot.get("histograms", {}).items():
        lines.append(
            f"histogram {key} count={data['count']} sum_ms={data['sum_ms']:g}"
        )
        for bucket, count in data["buckets"].items():
            lines.append(f"histogram {key}{{{bucket}}} {count}")
    return "\n".join(lines) + ("\n" if lines else "")
