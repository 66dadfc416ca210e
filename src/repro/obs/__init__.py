"""Observability for the query engine: traces, metrics, query log.

Three cooperating pieces, each usable alone:

* :mod:`repro.obs.trace` — hierarchical spans under a context-var
  driven :class:`Tracer` (what happened inside one call, and when);
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms (what the process has done,
  aggregated);
* :mod:`repro.obs.querylog` — a ring buffer of structured
  :class:`QueryRecord` entries (what queries ran and how they went).

The request-scoped tracing layer adds three more:

* :mod:`repro.obs.context` — the serializable :class:`TraceContext`
  that carries a trace id and sampling decision across thread pools
  and backend processes;
* :mod:`repro.obs.sampling` — :class:`HeadSampler` (detail on/off at
  request start) and :class:`TraceStore` (tail-keep retention of slow,
  errored, and fault-marked traces);
* :mod:`repro.obs.slo` — declarative :class:`SLObjective` targets and
  multi-window :class:`BurnRateMonitor` alerting.

:class:`Telemetry` bundles a tracer, registry, and query log — the unit
an :class:`~repro.engine.Engine` carries; see ``docs/observability.md``
for the metric catalogue and span taxonomy.
"""

from __future__ import annotations

from typing import Any

from repro.obs.context import TraceContext, new_trace_id
from repro.obs.metrics import (
    INDEX_BUILD_SECONDS,
    SECONDS_BUCKETS,
    SERVER_CACHE_HITS_TOTAL,
    SERVER_CACHE_MISSES_TOTAL,
    SERVER_REQUEST_SECONDS,
    SERVER_REQUESTS_TOTAL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.querylog import QueryLog, QueryRecord
from repro.obs.sampling import HeadSampler, KeptTrace, TraceStore
from repro.obs.slo import BurnRateMonitor, SLObjective, SLOObservatory
from repro.obs.trace import Span, Tracer, load_jsonl, maybe_span, span_from_dict, span_to_dict

__all__ = [
    "Telemetry",
    "Tracer",
    "Span",
    "maybe_span",
    "span_to_dict",
    "span_from_dict",
    "load_jsonl",
    "TraceContext",
    "new_trace_id",
    "HeadSampler",
    "KeptTrace",
    "TraceStore",
    "SLObjective",
    "BurnRateMonitor",
    "SLOObservatory",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "QueryLog",
    "QueryRecord",
    "SECONDS_BUCKETS",
    "INDEX_BUILD_SECONDS",
    "SERVER_REQUESTS_TOTAL",
    "SERVER_REQUEST_SECONDS",
    "SERVER_CACHE_HITS_TOTAL",
    "SERVER_CACHE_MISSES_TOTAL",
]


class Telemetry:
    """One engine's observability bundle: tracer + metrics + query log.

    Tracing starts disabled (spans cost time; metrics and the query log
    are cheap enough to keep always on).  Flip it with
    :meth:`enable_tracing` or ``telemetry.tracer.enabled = True``.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        query_log: QueryLog | None = None,
        query_log_capacity: int = 256,
    ):
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.query_log = (
            query_log if query_log is not None else QueryLog(query_log_capacity)
        )

    def enable_tracing(self, enabled: bool = True) -> None:
        self.tracer.enabled = enabled

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready view of everything this bundle has recorded."""
        return {
            "tracing_enabled": self.tracer.enabled,
            "traces_retained": len(self.tracer.roots),
            "metrics": self.metrics.snapshot(),
            "query_log": self.query_log.summary(),
            "recent_queries": [
                record.to_dict() for record in self.query_log.records()[-10:]
            ],
        }
