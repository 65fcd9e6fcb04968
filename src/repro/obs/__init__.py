"""``repro.obs`` — the request-scoped observability layer.

Three stdlib-only pieces (see ``ARCHITECTURE.md`` for the contracts):

* :mod:`repro.obs.metrics` — the process-wide :class:`MetricsRegistry`
  (counters and fixed-bucket histograms; deterministic snapshots) of
  request- and run-scoped series: the HTTP layer, the query service's
  request envelope, the parallel coordinator and the engine publish into
  it.  ``/v1/metrics`` serves its snapshot plus the service's own
  counters and its one gauge
  (:func:`repro.service.status.service_series`);
* :mod:`repro.obs.tracing` — per-request ``trace_id`` plus a
  :class:`Trace` phase tree recorded through the :func:`span` context
  manager (a service query, the CLI's ``enumerate`` and ``query run``
  included: ``parse → load → plan → traverse → serialize``; see that
  module for every path's phases) and propagated into parallel workers
  by value;
* :mod:`repro.obs.slowlog` — the :class:`SlowQueryLog` JSON-lines sink
  for slow-query and server-error records.

The whole layer rides one switch: ``REPRO_OBS=off`` disables the global
registry (every publish site then costs a single boolean check), leaves
``/v1/metrics`` without series and suppresses request traces.  Tracing is additionally opt-in per request
(``"trace": true`` in a query document, ``--trace`` on the CLI) — a
disabled layer never emits trace blocks even when asked.
"""

from __future__ import annotations

import os
from typing import Optional

from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
    render_snapshot_text,
    series_key,
)
from .slowlog import (
    SLOW_QUERY_LOG_ENV_VAR,
    SLOW_QUERY_MS_ENV_VAR,
    SlowQueryLog,
)
from .tracing import Span, Trace, current_trace, new_trace_id, span, trace

#: Environment variable switching the whole layer: ``off``/``0``/``false``
#: disables the global registry and request traces; anything else (or
#: unset) leaves observability on.
OBS_ENV_VAR = "REPRO_OBS"

_OFF_VALUES = {"0", "off", "false", "no"}


def obs_enabled_default() -> bool:
    """Whether ``REPRO_OBS`` leaves the layer enabled (the default)."""
    return os.environ.get(OBS_ENV_VAR, "").strip().lower() not in _OFF_VALUES


_registry: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-wide registry (created on first use, env-gated)."""
    global _registry
    if _registry is None:
        _registry = MetricsRegistry(enabled=obs_enabled_default())
    return _registry


def reset_registry() -> MetricsRegistry:
    """Replace the global registry with a fresh env-gated one (tests)."""
    global _registry
    _registry = MetricsRegistry(enabled=obs_enabled_default())
    return _registry


#: The engine's per-prune-site counters (``TraversalStats`` fields) as
#: published into the registry: one ``engine_pruned_total{site=…}`` series
#: per prune site.  Listed here — not introspected — so the metric names
#: are a stable contract independent of dataclass field order.
PRUNE_SITE_FIELDS = (
    ("size_filter", "num_pruned_size_filter"),
    ("subtree", "num_pruned_subtree"),
    ("anchor", "num_pruned_anchor"),
    ("exclusion", "num_pruned_exclusion"),
    ("core_bound", "num_pruned_core_bound"),
    ("right_extensible", "num_pruned_right_extensible"),
)


def publish_run_stats(stats, registry: Optional[MetricsRegistry] = None) -> None:
    """Fold one finished traversal's counters into the metrics registry.

    Called by the session layer when a run's stream closes (stats are
    final by then), for every front end — library ``run()``, CLI,
    service.  One early boolean check keeps the disabled path free.
    """
    target = registry if registry is not None else get_registry()
    if not target.enabled:
        return
    target.inc("engine_runs_total")
    target.inc("engine_solutions_total", value=stats.num_reported)
    target.inc("engine_links_total", value=stats.num_links)
    target.inc("engine_almost_sat_graphs_total", value=stats.num_almost_sat_graphs)
    target.inc("engine_pruned_by_bound_total", value=stats.num_pruned_by_bound)
    if stats.truncated:
        target.inc("engine_truncated_runs_total")
    for site, field_name in PRUNE_SITE_FIELDS:
        value = getattr(stats, field_name, 0)
        if value:
            target.inc("engine_pruned_total", value=value, site=site)
    target.observe(
        "engine_run_ms", stats.elapsed_seconds * 1000.0, route="engine"
    )


__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "OBS_ENV_VAR",
    "PRUNE_SITE_FIELDS",
    "SLOW_QUERY_LOG_ENV_VAR",
    "SLOW_QUERY_MS_ENV_VAR",
    "SlowQueryLog",
    "Span",
    "Trace",
    "current_trace",
    "get_registry",
    "new_trace_id",
    "obs_enabled_default",
    "publish_run_stats",
    "render_snapshot_text",
    "reset_registry",
    "series_key",
    "span",
    "trace",
]
