"""Configuration for the concurrent query service.

One frozen dataclass holds every capacity knob the serving layer
exposes, with defaults sized for an interactive single-host deployment;
``docs/server.md`` documents how each knob trades latency against
throughput and memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError

__all__ = ["ServerConfig", "CorpusSpec"]

#: Synthetic corpora ``CorpusSpec(kind="synthetic")`` can name.
_SYNTHETIC_KINDS = ("play", "dictionary", "report", "source")


@dataclass(frozen=True)
class CorpusSpec:
    """Where one served corpus comes from.

    ``kind`` selects the loader:

    * ``"index"`` — a saved index file (``repro index`` output);
    * ``"tagged"`` — an SGML-ish document, indexed at load;
    * ``"source"`` — a toy-language program, indexed at load (carries
      the Figure 1 RIG, so optimization is schema-aware);
    * ``"synthetic"`` — a generated corpus (``path`` names the
      generator: play, dictionary, report, source).

    File-backed corpora can be hot-reloaded (``/corpora/<name>/reload``)
    to pick up a re-indexed file; the generation counter and result
    cache handle the swap.

    ``source`` (``kind="index"`` only) names the document the index was
    built from.  When a load finds the index file corrupt
    (:class:`~repro.errors.CorruptIndexError` survives its retries), the
    service quarantines the bad file and rebuilds the engine from this
    source — ``source_format`` says how to parse it (``"tagged"`` or
    ``"source"``) — then re-saves the index.  Without a ``source`` the
    corpus just fails to (re)load and its circuit breaker handles it.
    """

    name: str
    kind: str
    path: str
    seed: int = 2024
    scale: int = 4  #: size multiplier for synthetic corpora
    source: str | None = None  #: rebuild document for ``kind="index"``
    source_format: str = "tagged"

    def __post_init__(self) -> None:
        if self.kind not in ("index", "tagged", "source", "synthetic"):
            raise ReproError(f"unknown corpus kind {self.kind!r}")
        if self.kind == "synthetic" and self.path not in _SYNTHETIC_KINDS:
            raise ReproError(
                f"unknown synthetic corpus {self.path!r} "
                f"(available: {', '.join(_SYNTHETIC_KINDS)})"
            )
        if self.source_format not in ("tagged", "source"):
            raise ReproError(
                f"unknown source format {self.source_format!r} "
                "(available: tagged, source)"
            )
        if self.source is not None and self.kind != "index":
            raise ReproError(
                "a rebuild source only makes sense for kind='index'"
            )

    def to_dict(self) -> dict[str, Any]:
        data = {"name": self.name, "kind": self.kind, "path": self.path}
        if self.source is not None:
            data["source"] = self.source
            data["source_format"] = self.source_format
        return data


@dataclass(frozen=True)
class ServerConfig:
    """Capacity and behavior knobs for :class:`~repro.server.QueryService`.

    ``workers``
        Run slots: how many requests evaluate at once, each on the
        thread it arrived on.  Queries are GIL-bound Python, so past a
        handful the win is overlap of queueing and I/O, not CPU
        parallelism.
    ``queue_depth``
        Bounded admission queue.  A request arriving with ``workers``
        evaluating and ``queue_depth`` requests waiting is rejected with
        ``429``/``Retry-After`` instead of queueing without bound —
        shed load early rather than time out everything late.
    ``cache_capacity`` / ``cache_enabled``
        Result-cache entries (LRU).  Keyed by (corpus, generation,
        normalized plan); reloading a corpus invalidates its entries.
    ``default_deadline`` / ``max_deadline``
        Seconds.  Every query gets a deadline (requests may lower or
        raise theirs up to ``max_deadline``); the evaluator aborts
        cooperatively with ``QueryTimeout`` when it expires.

    Resilience knobs (``docs/robustness.md``):

    ``retry_attempts`` / ``retry_base_delay`` / ``retry_max_delay``
        Backoff policy around corpus (re)loads.
    ``breaker_threshold`` / ``breaker_reset``
        Per-corpus circuit breaker: consecutive load failures that trip
        it, and the seconds an open breaker waits before half-opening.
    ``health_window`` / ``degraded_threshold`` / ``unhealthy_threshold``
        The sliding window (seconds) and error-rate thresholds of the
        health state machine; ``health_min_samples`` outcomes must be in
        the window before leaving ``healthy``; when unhealthy every
        ``probe_interval``-th request is admitted as a probe.  While
        degraded, a cache miss may be answered by a matching entry from
        the previous corpus generation (marked ``"stale": true``).

    Tracing knobs (``docs/observability.md``), active when ``tracing``:

    ``trace_sample_rate``
        Fraction of requests head-sampled for per-operator ``eval.*``
        detail; every request still records the coarse span skeleton.
    ``trace_tail_capacity``
        Ring size for tail-kept (slow/error/fault) traces; head-sampled
        traces keep the last 256.
    ``trace_slow_seconds``
        A request at or above this duration is tail-kept as ``slow``.

    Backend topology knobs (``docs/server.md``, "Topology & failover")
    — the one way a service scatters a corpus:

    ``backend_nodes``
        Backend node count; 0 (the default) disables the frontier and
        evaluates each query on one engine.  With ``backend_mode="http"``
        each node is a supervised ``repro serve`` subprocess; with
        ``"inprocess"`` each is a slice server in this process that
        answers from the generation the request captured.
    ``backend_groups`` / ``backend_replicas``
        Shard groups per corpus and replicas per group.  Each
        ``(corpus, group)`` is placed on ``backend_replicas`` distinct
        nodes by consistent hashing; a group is unavailable only when
        *all* its replicas fail, and even then the service degrades to
        local evaluation rather than failing the query.
    ``backend_hedge_budget``
        A call outliving the primary node's recent p95 latency (but at
        least 50 ms) is hedged to the next replica, first answer wins;
        hedges may not exceed this fraction of primary calls (0
        disables hedging).
    ``backend_respawn_delay``
        Seconds the supervisor waits before respawning a dead backend
        subprocess on its old port.

    Replication knobs (``docs/robustness.md``, "Replication &
    anti-entropy"), meaningful only with ``backend_mode="http"`` —
    in-process backends read the snapshot each request captured, so
    they are never behind it:

    ``replication_enabled``
        Ship every committed WAL batch to every backend node so
        replicas serve the generation the write was acknowledged at.
        When off, writes to a corpus served through remote backends are
        rejected with ``409 ingest_unreplicated`` rather than silently
        diverging from what the replicas keep serving.
    ``replication_interval``
        Seconds between background replication sweeps — each sweep
        catches up lagging or respawned nodes and runs the anti-entropy
        checksum comparison.
    ``replication_lag_limit``
        A node this many generations behind on any corpus raises
        replication pressure on the health monitor (degraded state)
        until it catches back up.

    Live-ingestion knobs (``docs/internals.md``, "Segments, generations,
    and the WAL"):

    ``ingest_enabled``
        Accept ``POST /ingest`` mutations.  Off by default: a read-only
        service never pays the write path's locks or disk I/O.  A
        commit keeps the cache entries of the current and the previous
        generation (the ones degraded mode serves stale) and drops older
        ones; a reload still invalidates the whole corpus.
    ``ingest_dir``
        Directory for the per-corpus write-ahead logs and checkpoint
        snapshots; a temporary directory is created (and the WAL is
        non-durable across restarts) when unset.
    ``ingest_fsync``
        fsync every committed batch (and checkpoint).  Turning it off
        trades crash durability for commit latency — tests only.
    ``compaction_enabled`` / ``compaction_interval`` /
    ``compaction_min_segments``
        The background compactor: every ``compaction_interval`` seconds
        (skipped entirely while the service is not healthy) it merges
        the segments of at most one corpus that has tombstones or at
        least ``compaction_min_segments`` segments holding 32 or fewer
        live documents each.

    SLO knobs (always active; they only read request outcomes):

    ``slo_availability_objective``
        Target fraction of counted requests (200/500/504) that must not
        fail server-side.
    ``slo_latency_threshold``
        95% of successful requests should be answered within this many
        seconds.
    ``slo_fast_window`` / ``slo_slow_window`` / ``slo_burn_threshold``
        Multi-window burn-rate alerting: fast-burn fires only when both
        windows burn the error budget at ``slo_burn_threshold`` times
        the sustainable rate, with at least ``slo_min_samples`` events
        in each window.
    ``slo_shed_on_fast_burn``
        When true a fast burn forces the health state to unhealthy
        (load shed); the default only forces degraded.
    """

    host: str = "127.0.0.1"
    port: int = 8600
    workers: int = 4
    queue_depth: int = 16
    cache_capacity: int = 512
    cache_enabled: bool = True
    default_deadline: float = 5.0
    max_deadline: float = 60.0
    tracing: bool = False
    query_log_capacity: int = 1024
    corpora: tuple[CorpusSpec, ...] = field(default_factory=tuple)
    retry_attempts: int = 3
    retry_base_delay: float = 0.05
    retry_max_delay: float = 0.5
    breaker_threshold: int = 3
    breaker_reset: float = 5.0
    health_window: float = 10.0
    degraded_threshold: float = 0.10
    unhealthy_threshold: float = 0.50
    health_min_samples: int = 10
    probe_interval: int = 10
    backend_nodes: int = 0
    backend_groups: int = 2
    backend_replicas: int = 1
    backend_mode: str = "inprocess"
    backend_hedge_budget: float = 0.1
    backend_respawn_delay: float = 0.5
    replication_enabled: bool = True
    replication_interval: float = 2.0
    replication_lag_limit: int = 8
    ingest_enabled: bool = False
    ingest_dir: str | None = None
    ingest_fsync: bool = True
    compaction_enabled: bool = True
    compaction_interval: float = 5.0
    compaction_min_segments: int = 4
    trace_sample_rate: float = 0.1
    trace_tail_capacity: int = 256
    trace_slow_seconds: float = 0.25
    slo_availability_objective: float = 0.99
    slo_latency_threshold: float = 0.5
    slo_fast_window: float = 60.0
    slo_slow_window: float = 300.0
    slo_burn_threshold: float = 10.0
    slo_min_samples: int = 20
    slo_shed_on_fast_burn: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ReproError("server needs at least one worker")
        if self.queue_depth < 0:
            raise ReproError("queue depth cannot be negative")
        if self.cache_capacity < 1:
            raise ReproError("cache capacity must be positive")
        if not (0 < self.default_deadline <= self.max_deadline):
            raise ReproError(
                "deadlines must satisfy 0 < default_deadline <= max_deadline"
            )
        if self.retry_attempts < 1:
            raise ReproError("retry_attempts must be at least 1")
        if self.breaker_threshold < 1:
            raise ReproError("breaker_threshold must be at least 1")
        if self.breaker_reset <= 0:
            raise ReproError("breaker_reset must be positive seconds")
        if not (
            0 < self.degraded_threshold <= self.unhealthy_threshold <= 1.0
        ):
            raise ReproError(
                "thresholds must satisfy "
                "0 < degraded_threshold <= unhealthy_threshold <= 1"
            )
        if self.backend_mode not in ("inprocess", "http"):
            raise ReproError(
                f"unknown backend mode {self.backend_mode!r} "
                "(available: inprocess, http)"
            )
        if self.backend_nodes < 0:
            raise ReproError("backend_nodes cannot be negative")
        if self.backend_groups < 1:
            raise ReproError("backend_groups must be at least 1")
        if self.backend_replicas < 1:
            raise ReproError("backend_replicas must be at least 1")
        if 0 < self.backend_nodes < self.backend_replicas:
            raise ReproError(
                "backend_replicas cannot exceed backend_nodes"
            )
        if self.backend_hedge_budget < 0:
            raise ReproError("backend_hedge_budget cannot be negative")
        if self.backend_respawn_delay <= 0:
            raise ReproError("backend_respawn_delay must be positive seconds")
        if self.replication_interval <= 0:
            raise ReproError("replication_interval must be positive seconds")
        if self.replication_lag_limit < 1:
            raise ReproError("replication_lag_limit must be at least 1")
        if self.compaction_interval <= 0:
            raise ReproError("compaction_interval must be positive seconds")
        if self.compaction_min_segments < 2:
            raise ReproError("compaction_min_segments must be at least 2")
        if not (0.0 <= self.trace_sample_rate <= 1.0):
            raise ReproError("trace_sample_rate must be in [0, 1]")
        if self.trace_tail_capacity < 1:
            raise ReproError("trace_tail_capacity must be at least 1")
        if self.trace_slow_seconds <= 0:
            raise ReproError("trace_slow_seconds must be positive")
        if not (0.0 < self.slo_availability_objective < 1.0):
            raise ReproError("SLO objectives must be in (0, 1)")
        if self.slo_latency_threshold <= 0:
            raise ReproError("slo_latency_threshold must be positive seconds")
        if not (0 < self.slo_fast_window <= self.slo_slow_window):
            raise ReproError(
                "SLO windows must satisfy 0 < slo_fast_window <= slo_slow_window"
            )
        if self.slo_burn_threshold <= 0:
            raise ReproError("slo_burn_threshold must be positive")
        if self.slo_min_samples < 1:
            raise ReproError("slo_min_samples must be at least 1")

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (what ``/healthz`` reports as ``config``)."""
        return {
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "cache_capacity": self.cache_capacity,
            "cache_enabled": self.cache_enabled,
            "default_deadline": self.default_deadline,
            "max_deadline": self.max_deadline,
            "tracing": self.tracing,
            "retry_attempts": self.retry_attempts,
            "breaker_threshold": self.breaker_threshold,
            "breaker_reset": self.breaker_reset,
            "health_window": self.health_window,
            "degraded_threshold": self.degraded_threshold,
            "unhealthy_threshold": self.unhealthy_threshold,
            "backend_nodes": self.backend_nodes,
            "backend_groups": self.backend_groups,
            "backend_replicas": self.backend_replicas,
            "backend_mode": self.backend_mode,
            "backend_hedge_budget": self.backend_hedge_budget,
            "backend_respawn_delay": self.backend_respawn_delay,
            "replication_enabled": self.replication_enabled,
            "replication_interval": self.replication_interval,
            "replication_lag_limit": self.replication_lag_limit,
            "ingest_enabled": self.ingest_enabled,
            "ingest_dir": self.ingest_dir,
            "ingest_fsync": self.ingest_fsync,
            "compaction_enabled": self.compaction_enabled,
            "compaction_interval": self.compaction_interval,
            "compaction_min_segments": self.compaction_min_segments,
            "trace_sample_rate": self.trace_sample_rate,
            "trace_tail_capacity": self.trace_tail_capacity,
            "trace_slow_seconds": self.trace_slow_seconds,
            "slo_availability_objective": self.slo_availability_objective,
            "slo_latency_threshold": self.slo_latency_threshold,
            "slo_fast_window": self.slo_fast_window,
            "slo_slow_window": self.slo_slow_window,
            "slo_burn_threshold": self.slo_burn_threshold,
            "slo_min_samples": self.slo_min_samples,
            "slo_shed_on_fast_burn": self.slo_shed_on_fast_burn,
        }
