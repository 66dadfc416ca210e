"""A process-wide metrics registry: counters, gauges, histograms.

The quantitative half of the observability layer (the qualitative half —
traces — lives in :mod:`repro.obs.trace`).  All instruments support
label sets (``histogram.observe(t, op="Union")``), stored per sorted
label tuple, and render into a plain-dict snapshot for JSON output.

The engine's well-known metric names are module constants so the
instrumented call sites, the CLI, and the tests agree on spelling:

==========================  =============================================
``queries_total``           counter, per :meth:`Engine.query`/``explain``
``parse_seconds``           histogram, query-text parsing + view expansion
``optimize_seconds``        histogram, one :func:`optimize` call
``eval_node_seconds``       histogram ``{op=...}``, one evaluator node
``memo_hits_total``         counter, common-sub-expression cache hits
``eval_nodes_total``        counter, evaluator nodes visited
``result_cardinality``      histogram, regions returned per query
``index_build_seconds``     histogram ``{kind=...}``, parse/load an index
``optimizer_rule_fires_total``  counter ``{rule=...}``, rewrites applied
==========================  =============================================

A registry is cheap; engines carry their own.  The module-level
:func:`global_registry` aggregates call sites that run before any engine
exists (the index builders).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "parse_label_text",
    "SECONDS_BUCKETS",
    "CARDINALITY_BUCKETS",
    "QUERIES_TOTAL",
    "PARSE_SECONDS",
    "OPTIMIZE_SECONDS",
    "EVAL_NODE_SECONDS",
    "MEMO_HITS_TOTAL",
    "EVAL_NODES_TOTAL",
    "RESULT_CARDINALITY",
    "INDEX_BUILD_SECONDS",
    "OPTIMIZER_RULE_FIRES_TOTAL",
    "VM_COMPILE_TOTAL",
    "VM_KERNEL_INVOCATIONS_TOTAL",
    "VM_EXEC_SECONDS",
    "SERVER_REQUESTS_TOTAL",
    "SERVER_REQUEST_SECONDS",
    "SERVER_QUEUE_DEPTH",
    "SERVER_INFLIGHT",
    "SERVER_CACHE_HITS_TOTAL",
    "SERVER_CACHE_MISSES_TOTAL",
    "SERVER_CACHE_EVICTIONS_TOTAL",
    "SERVER_REJECTED_TOTAL",
    "SERVER_TIMEOUTS_TOTAL",
    "SERVER_SHED_TOTAL",
    "SERVER_STALE_SERVED_TOTAL",
    "SERVER_HEALTH_STATE",
    "SERVER_HEALTH_TRANSITIONS_TOTAL",
    "FAULT_INJECTIONS_TOTAL",
    "RETRY_ATTEMPTS_TOTAL",
    "RETRY_EXHAUSTED_TOTAL",
    "BREAKER_STATE",
    "BREAKER_TRANSITIONS_TOTAL",
    "STORAGE_QUARANTINED_TOTAL",
    "INDEX_REBUILDS_TOTAL",
    "BACKEND_REQUESTS_TOTAL",
    "BACKEND_RPC_SECONDS",
    "BACKEND_FAILOVERS_TOTAL",
    "BACKEND_HEDGES_TOTAL",
    "BACKEND_HEDGE_WINS_TOTAL",
    "BACKEND_RESPAWNS_TOTAL",
    "FRONTIER_FALLBACK_TOTAL",
    "REPLICATION_BATCHES_SHIPPED_TOTAL",
    "REPLICATION_SHIP_FAILURES_TOTAL",
    "REPLICATION_APPLY_SECONDS",
    "REPLICATION_LAG",
    "REPLICATION_LAGGING_READS_TOTAL",
    "REPLICATION_CATCHUPS_TOTAL",
    "REPLICATION_ANTI_ENTROPY_RUNS_TOTAL",
    "REPLICATION_DIVERGENCE_TOTAL",
    "INGEST_OPS_TOTAL",
    "INGEST_BATCHES_TOTAL",
    "INGEST_COMMIT_SECONDS",
    "INGEST_DOCUMENTS",
    "INGEST_SEGMENTS",
    "INGEST_TOMBSTONES",
    "WAL_RECORDS_TOTAL",
    "WAL_BYTES_TOTAL",
    "WAL_REPLAYED_RECORDS_TOTAL",
    "WAL_TRUNCATIONS_TOTAL",
    "COMPACTION_RUNS_TOTAL",
    "COMPACTION_MERGED_SEGMENTS_TOTAL",
    "COMPACTION_SECONDS",
    "TRACES_KEPT_TOTAL",
    "TRACES_DROPPED_TOTAL",
    "SLO_EVENTS_TOTAL",
    "SLO_BAD_EVENTS_TOTAL",
    "SLO_BURN_RATE",
    "SLO_FAST_BURN_ACTIVE",
]

QUERIES_TOTAL = "queries_total"
PARSE_SECONDS = "parse_seconds"
OPTIMIZE_SECONDS = "optimize_seconds"
EVAL_NODE_SECONDS = "eval_node_seconds"
MEMO_HITS_TOTAL = "memo_hits_total"
EVAL_NODES_TOTAL = "eval_nodes_total"
RESULT_CARDINALITY = "result_cardinality"
INDEX_BUILD_SECONDS = "index_build_seconds"
OPTIMIZER_RULE_FIRES_TOTAL = "optimizer_rule_fires_total"

# The compiled execution engine (repro.vm) — see docs/internals.md.
VM_COMPILE_TOTAL = "vm_compile_total"
VM_KERNEL_INVOCATIONS_TOTAL = "vm_kernel_invocations_total"
VM_EXEC_SECONDS = "vm_exec_seconds"

# The serving layer (repro.server) — see docs/server.md.
SERVER_REQUESTS_TOTAL = "server_requests_total"
SERVER_REQUEST_SECONDS = "server_request_seconds"
SERVER_QUEUE_DEPTH = "server_queue_depth"
SERVER_INFLIGHT = "server_inflight"
SERVER_CACHE_HITS_TOTAL = "server_cache_hits_total"
SERVER_CACHE_MISSES_TOTAL = "server_cache_misses_total"
SERVER_CACHE_EVICTIONS_TOTAL = "server_cache_evictions_total"
SERVER_REJECTED_TOTAL = "server_rejected_total"
SERVER_TIMEOUTS_TOTAL = "server_timeouts_total"

# The resilience layer (repro.faults + server hardening) —
# see docs/robustness.md.
SERVER_SHED_TOTAL = "server_shed_total"
SERVER_STALE_SERVED_TOTAL = "server_stale_served_total"
SERVER_HEALTH_STATE = "server_health_state"
SERVER_HEALTH_TRANSITIONS_TOTAL = "server_health_transitions_total"
FAULT_INJECTIONS_TOTAL = "fault_injections_total"
RETRY_ATTEMPTS_TOTAL = "retry_attempts_total"
RETRY_EXHAUSTED_TOTAL = "retry_exhausted_total"
BREAKER_STATE = "breaker_state"
BREAKER_TRANSITIONS_TOTAL = "breaker_transitions_total"
STORAGE_QUARANTINED_TOTAL = "storage_quarantined_total"
INDEX_REBUILDS_TOTAL = "index_rebuilds_total"

# The scatter-gather frontier (repro.backend), behind both
# ShardExecutor and the service topology — see docs/server.md
# ("Topology & failover") and docs/robustness.md.
BACKEND_REQUESTS_TOTAL = "backend_requests_total"
BACKEND_RPC_SECONDS = "backend_rpc_seconds"
BACKEND_FAILOVERS_TOTAL = "backend_failovers_total"
BACKEND_HEDGES_TOTAL = "backend_hedges_total"
BACKEND_HEDGE_WINS_TOTAL = "backend_hedge_wins_total"
BACKEND_RESPAWNS_TOTAL = "backend_respawns_total"
FRONTIER_FALLBACK_TOTAL = "frontier_fallback_total"

# WAL log shipping to backend replicas (repro.backend.replication) —
# see docs/robustness.md ("Replication & anti-entropy").
REPLICATION_BATCHES_SHIPPED_TOTAL = "replication_batches_shipped_total"
REPLICATION_SHIP_FAILURES_TOTAL = "replication_ship_failures_total"
REPLICATION_APPLY_SECONDS = "replication_apply_seconds"
REPLICATION_LAG = "replication_lag"
REPLICATION_LAGGING_READS_TOTAL = "replication_lagging_reads_total"
REPLICATION_CATCHUPS_TOTAL = "replication_catchups_total"
REPLICATION_ANTI_ENTROPY_RUNS_TOTAL = "replication_anti_entropy_runs_total"
REPLICATION_DIVERGENCE_TOTAL = "replication_divergence_total"

# The live-ingestion layer (repro.ingest) — see docs/internals.md
# ("Segments, generations, and the WAL") and docs/server.md.
INGEST_OPS_TOTAL = "ingest_ops_total"
INGEST_BATCHES_TOTAL = "ingest_batches_total"
INGEST_COMMIT_SECONDS = "ingest_commit_seconds"
INGEST_DOCUMENTS = "ingest_documents"
INGEST_SEGMENTS = "ingest_segments"
INGEST_TOMBSTONES = "ingest_tombstones"
WAL_RECORDS_TOTAL = "wal_records_total"
WAL_BYTES_TOTAL = "wal_bytes_total"
WAL_REPLAYED_RECORDS_TOTAL = "wal_replayed_records_total"
WAL_TRUNCATIONS_TOTAL = "wal_truncations_total"
COMPACTION_RUNS_TOTAL = "compaction_runs_total"
COMPACTION_MERGED_SEGMENTS_TOTAL = "compaction_merged_segments_total"
COMPACTION_SECONDS = "compaction_seconds"

# The tracing/SLO layer (repro.obs.sampling + repro.obs.slo) —
# see docs/observability.md.
TRACES_KEPT_TOTAL = "traces_kept_total"
TRACES_DROPPED_TOTAL = "traces_dropped_total"
SLO_EVENTS_TOTAL = "slo_events_total"
SLO_BAD_EVENTS_TOTAL = "slo_bad_events_total"
SLO_BURN_RATE = "slo_burn_rate"
SLO_FAST_BURN_ACTIVE = "slo_fast_burn_active"

#: Upper bucket bounds for wall-time histograms (seconds; +inf implied).
SECONDS_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: Upper bucket bounds for cardinality histograms (+inf implied).
CARDINALITY_BUCKETS = (0.0, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_part(text: str) -> str:
    """Escape the characters ``_label_text`` uses as structure.

    Backslash first (it is the escape character), then the ``,`` and
    ``=`` separators, then newline — so label values containing any of
    them round-trip through the snapshot text form instead of corrupting
    it.  Values without those characters are returned unchanged, which
    keeps the common snapshot keys (``endpoint=query,status=200``)
    byte-identical to what they were before escaping existed.
    """
    if not any(ch in text for ch in "\\,=\n"):
        return text
    return (
        text.replace("\\", "\\\\")
        .replace(",", "\\,")
        .replace("=", "\\=")
        .replace("\n", "\\n")
    )


def _label_text(key: LabelKey) -> str:
    return ",".join(
        f"{_escape_label_part(k)}={_escape_label_part(v)}" for k, v in key
    )


def parse_label_text(text: str) -> list[tuple[str, str]]:
    """Invert :func:`_label_text`: split a snapshot label string back
    into ``(name, value)`` pairs, honouring backslash escapes."""
    pairs: list[tuple[str, str]] = []
    if not text:
        return pairs
    name: list[str] = []
    value: list[str] = []
    target = name
    chars = iter(text)
    for ch in chars:
        if ch == "\\":
            follower = next(chars, "")
            target.append("\n" if follower == "n" else follower)
        elif ch == "=" and target is name:
            target = value
        elif ch == ",":
            pairs.append(("".join(name), "".join(value)))
            name, value = [], []
            target = name
        else:
            target.append(ch)
    pairs.append(("".join(name), "".join(value)))
    return pairs


class Counter:
    """A monotonically increasing sum, per label set.

    Updates take a per-instrument lock: the serving layer increments
    counters from many worker threads, and an unlocked read-modify-write
    would drop increments under contention.
    """

    __slots__ = ("name", "help", "_values", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """The sum over every label set."""
        return sum(self._values.values())

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {
                _label_text(key): value for key, value in self._values.items()
            }


class Gauge:
    """A value that goes up and down, per label set (thread-safe)."""

    __slots__ = ("name", "help", "_values", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {
                _label_text(key): value for key, value in self._values.items()
            }


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count", "exemplars")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for the +inf bucket
        self.sum = 0.0
        self.count = 0
        #: bucket index -> (observed value, exemplar id, unix timestamp);
        #: newest observation with an exemplar wins per bucket.
        self.exemplars: dict[int, tuple[float, str, float]] = {}


class Histogram:
    """Fixed upper-bound buckets plus a running sum and count.

    A value lands in the first bucket whose bound is ``>= value``
    (cumulative-style edges: a value exactly on a bound counts in that
    bound's bucket); values above every bound land in the implicit
    ``+inf`` bucket.
    """

    __slots__ = ("name", "help", "buckets", "_series", "_lock")

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = SECONDS_BUCKETS,
        help: str = "",
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name} needs increasing bucket bounds")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}
        self._lock = threading.Lock()

    def observe(
        self, value: float, *, exemplar: str | None = None, **labels: Any
    ) -> None:
        """Record ``value``; an ``exemplar`` (a trace id) tags the bucket
        the value lands in, linking the aggregate back to one concrete
        kept trace in the OpenMetrics exposition."""
        key = _label_key(labels)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.bucket_counts[index] += 1
            series.sum += value
            series.count += 1
            if exemplar is not None:
                series.exemplars[index] = (value, exemplar, time.time())

    # ------------------------------------------------------------------

    def count(self, **labels: Any) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels: Any) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series else 0.0

    def mean(self, **labels: Any) -> float:
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return math.nan
        return series.sum / series.count

    def total_count(self) -> int:
        return sum(s.count for s in self._series.values())

    def total_sum(self) -> float:
        return sum(s.sum for s in self._series.values())

    def snapshot(self) -> dict[str, dict[str, Any]]:
        bound_names = [str(bound) for bound in self.buckets] + ["+inf"]
        out: dict[str, dict[str, Any]] = {}
        # The whole walk runs under the instrument lock so a concurrent
        # observe() can never show a series whose bucket counts do not
        # sum to its count (a torn read: count bumped, bucket not yet).
        with self._lock:
            for key, series in self._series.items():
                entry: dict[str, Any] = {
                    "count": series.count,
                    "sum": series.sum,
                    "buckets": dict(zip(bound_names, series.bucket_counts)),
                }
                if series.exemplars:
                    entry["exemplars"] = {
                        bound_names[index]: {
                            "value": value,
                            "trace_id": trace_id,
                            "timestamp": stamp,
                        }
                        for index, (value, trace_id, stamp) in sorted(
                            series.exemplars.items()
                        )
                    }
                out[_label_text(key)] = entry
        return out


class MetricsRegistry:
    """Get-or-create home for named instruments.

    Re-registering a name with a different instrument kind is an error;
    re-registering a histogram with different buckets is too (silent
    bucket drift would corrupt the series).  Get-or-create runs under a
    registry lock so concurrent first touches of one name agree on the
    instrument instance.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            self._check_free(name, self._counters)
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name, help)
            return counter

    def gauge(self, name: str, help: str = "") -> Gauge:
        with self._lock:
            self._check_free(name, self._gauges)
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name, help)
            return gauge

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = SECONDS_BUCKETS,
        help: str = "",
    ) -> Histogram:
        with self._lock:
            self._check_free(name, self._histograms)
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name, buckets, help)
            elif histogram.buckets != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"histogram {name!r} already registered with different buckets"
                )
            return histogram

    def _check_free(self, name: str, home: dict[str, Any]) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not home and name in kind:
                raise ValueError(
                    f"metric {name!r} already registered as a different kind"
                )

    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Every instrument's state as plain JSON-ready dicts."""
        return {
            "counters": {
                name: counter.snapshot()
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.snapshot()
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry (index builders record here)."""
    return _GLOBAL
