"""The concurrent query service: corpora + admission gate + result cache.

:class:`QueryService` is the transport-independent core of the serving
layer (the HTTP front end in :mod:`repro.server.http` is a thin JSON
adapter over it, and the benchmarks drive it in-process).  One service
owns:

* a set of named **corpus handles**, each wrapping an
  :class:`~repro.engine.Engine` plus a monotonically increasing
  *generation* counter bumped on every reload;
* an :class:`~repro.server.pool.AdmissionGate` bounding how many
  requests evaluate at once and how many wait to (reject-early under
  overload); a request evaluates on the thread it arrived on;
* a :class:`~repro.server.cache.ResultCache` keyed by
  ``(corpus, generation, normalized plan, optimize flag)`` — reloading a
  corpus bumps the generation and eagerly invalidates its entries;
* one shared :class:`~repro.obs.Telemetry` bundle all engines record
  into, extended with the ``server_*`` metrics, so ``/metrics`` is a
  single registry snapshot.

Every query request carries a deadline.  The clock starts at admission:
time spent waiting for a run slot counts against the budget, and the
remaining budget is handed to the evaluator's cooperative
deadline/cancellation check — a waiting request whose budget runs out
gives up its place instead of taking a slot.  A query is parsed once, on
arrival; the cache key and the evaluation both come from that tree.

Resilience (``docs/robustness.md``): corpus (re)loads run under a
bounded-backoff retry and a per-corpus circuit breaker; a persistently
corrupt index file is quarantined and the engine rebuilt from source
text when the spec names one; an evaluation that died holding its run
slot is re-dispatched; a :class:`~repro.server.health.HealthMonitor`
classifies the service healthy/degraded/unhealthy from request
outcomes — while degraded the optimizer pass is skipped and cache misses
may be answered by a stale entry from an older generation, and while
unhealthy load is shed with ``503`` except for a trickle of probes.
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Callable

from repro.algebra import ast as A
from repro.algebra.printer import to_text
from repro.backend.base import SliceProvider
from repro.backend.frontier import BackendNode, FrontierExecutor
from repro.engine.session import Engine
from repro.errors import (
    CorpusUnavailableError,
    CorruptIndexError,
    FaultInjected,
    IngestDisabledError,
    IngestError,
    IngestUnreplicatedError,
    QueryTimeout,
    ReplicaLaggingError,
    ReproError,
    ServerOverloadedError,
    ServiceUnhealthyError,
    StorageError,
    WorkerCrashedError,
    http_status,
)
from repro.faults import registry as _faults
from repro.faults.retry import CircuitBreaker, RetryPolicy, retry_call
from repro.obs import Telemetry
from repro.obs import context as _trace_context
from repro.obs.sampling import HeadSampler, TraceStore
from repro.obs.slo import SLOObservatory
from repro.obs.trace import maybe_span, span_to_dict
from repro.ingest import (
    BackgroundCompactor,
    LiveCorpus,
    WriteAheadLog,
    wal_checksum,
)
from repro.obs.metrics import (
    BREAKER_STATE,
    BREAKER_TRANSITIONS_TOTAL,
    COMPACTION_MERGED_SEGMENTS_TOTAL,
    COMPACTION_RUNS_TOTAL,
    COMPACTION_SECONDS,
    INDEX_REBUILDS_TOTAL,
    INGEST_BATCHES_TOTAL,
    INGEST_COMMIT_SECONDS,
    INGEST_DOCUMENTS,
    INGEST_OPS_TOTAL,
    INGEST_SEGMENTS,
    INGEST_TOMBSTONES,
    POOL_WORKER_DEATHS_TOTAL,
    REPLICATION_LAGGING_READS_TOTAL,
    RETRY_ATTEMPTS_TOTAL,
    RETRY_EXHAUSTED_TOTAL,
    SERVER_CACHE_EVICTIONS_TOTAL,
    SERVER_CACHE_HITS_TOTAL,
    SERVER_CACHE_MISSES_TOTAL,
    SERVER_HEALTH_STATE,
    SERVER_HEALTH_TRANSITIONS_TOTAL,
    SERVER_INFLIGHT,
    SERVER_QUEUE_DEPTH,
    SERVER_REJECTED_TOTAL,
    SERVER_REQUEST_SECONDS,
    SERVER_REQUESTS_TOTAL,
    SERVER_SHED_TOTAL,
    SERVER_STALE_SERVED_TOTAL,
    SERVER_TIMEOUTS_TOTAL,
)
from repro.server.cache import ResultCache
from repro.server.config import CorpusSpec, ServerConfig
from repro.server.health import DEGRADED, HEALTHY, UNHEALTHY, HealthMonitor
from repro.server.health import STATE_VALUES as _HEALTH_VALUES
from repro.server.pool import AdmissionGate

__all__ = ["QueryService", "UnknownCorpusError"]


class UnknownCorpusError(ReproError):
    """A request named a corpus the service does not serve."""

    code = "unknown_corpus"
    status = 404

    def __init__(self, name: str, known: tuple[str, ...]):
        self.name = name
        self.known = known
        hint = f"; serving: {', '.join(sorted(known))}" if known else ""
        super().__init__(f"unknown corpus {name!r}{hint}")


def _build_engine(
    spec: CorpusSpec,
    telemetry: Telemetry,
    shards: int | None = None,
) -> Engine:
    """Load one corpus per its spec, sharing the service telemetry."""
    if spec.kind == "index":
        return Engine.load(spec.path, shards=shards, telemetry=telemetry)
    if spec.kind == "synthetic":
        return _index_text(_synthesize(spec), spec.path, telemetry, shards)
    text = Path(spec.path).read_text(encoding="utf-8")
    return _index_text(text, spec.kind, telemetry, shards)


def _index_text(
    text: str, text_format: str, telemetry: Telemetry, shards: int | None
) -> Engine:
    """Index program source (Figure 1 RIG) or, by default, tagged text."""
    if text_format == "source":
        return Engine.from_source(text, shards=shards, telemetry=telemetry)
    return Engine.from_tagged_text(text, shards=shards, telemetry=telemetry)


def _rebuild_engine(
    spec: CorpusSpec,
    telemetry: Telemetry,
    shards: int | None = None,
) -> Engine:
    """Rebuild an ``index`` corpus from its source document and try to
    re-save the index file (best-effort) — the corruption-recovery path."""
    from repro.engine.storage import save_instance

    text = Path(spec.source).read_text(encoding="utf-8")
    engine = _index_text(text, spec.source_format, telemetry, shards)
    try:
        save_instance(engine.instance, spec.path)
    except (ReproError, OSError):
        pass  # serving from memory is fine; the next save may succeed
    return engine


def _synthesize(spec: CorpusSpec) -> str:
    import random

    from repro.workloads.corpora import (
        generate_dictionary,
        generate_play,
        generate_report,
    )

    rng = random.Random(spec.seed)
    scale = max(1, spec.scale)
    if spec.path == "play":
        return generate_play(
            rng,
            acts=scale,
            scenes_per_act=scale,
            speeches_per_scene=2 * scale,
            lines_per_speech=3,
        )
    if spec.path == "dictionary":
        return generate_dictionary(rng, entries=5 * scale)
    if spec.path == "report":
        return generate_report(rng, sections=scale, max_depth=3)
    from repro.engine.sourcecode import generate_program_source

    return generate_program_source(rng, procedures=10 * scale)


class _CorpusHandle:
    """One served corpus: engine + generation + reload lock + breaker.

    The engine and its generation are published together as one tuple
    so a reader can capture a consistent ``(engine, generation)`` pair
    with a single attribute load — two separate reads could interleave
    with :meth:`install` and pair a new engine with an old generation
    (or vice versa), which breaks generation-keyed caching.
    """

    __slots__ = ("spec", "_published", "loaded_at", "lock", "breaker")

    def __init__(self, spec: CorpusSpec, engine: Engine, breaker: CircuitBreaker):
        self.spec = spec
        self._published: tuple[Engine, int] = (engine, 1)
        self.loaded_at = monotonic()
        self.lock = threading.Lock()  # serializes reloads, not queries
        self.breaker = breaker
        self._warm(engine)

    @property
    def engine(self) -> Engine:
        return self._published[0]

    @property
    def generation(self) -> int:
        return self._published[1]

    def snapshot(self) -> tuple[Engine, int]:
        """The atomically consistent ``(engine, generation)`` pair."""
        return self._published

    @staticmethod
    def _warm(engine: Engine) -> None:
        # Build the lazily-cached forest up front so concurrent first
        # queries don't race on its construction.
        engine.instance.forest()

    def install(self, engine: Engine, generation: int | None = None) -> int:
        """Swap in a freshly loaded engine; returns the new generation.

        Queries already running keep the old engine (their reference
        keeps it alive); new requests see the new generation atomically.

        ``generation`` forces the published generation instead of
        bumping — the replication apply path, where the number is the
        *frontier's* and must match exactly so generation-floor reads
        compare like with like across the topology.
        """
        with self.lock:
            self._warm(engine)
            if generation is None:
                generation = self._published[1] + 1
            self._published = (engine, int(generation))
            self.loaded_at = monotonic()
            return int(generation)

    def info(self) -> dict[str, Any]:
        stats = self.engine.statistics()
        info = {
            **self.spec.to_dict(),
            "generation": self.generation,
            "regions": stats["total"],
            "region_names": sorted(stats["regions"]),
            "nesting_depth": stats["nesting_depth"],
            "breaker": self.breaker.snapshot(),
        }
        if "shards" in stats:
            info["shards"] = stats["shards"]
        return info


class _IngestState:
    """The write path of one ingest-enabled corpus.

    ``lock`` serializes writers (batch commits, compaction, reload
    rebasing) — readers never take it; they see engine swaps through
    :meth:`_CorpusHandle.install` exactly as reloads do, which is what
    makes reads snapshot-isolated against concurrent writes.
    """

    __slots__ = (
        "live",
        "wal",
        "lock",
        "rig",
        "batches",
        "replayed_batches",
        "compactions",
    )

    def __init__(
        self,
        live: LiveCorpus,
        wal: WriteAheadLog,
        rig: Any = None,
        replayed_batches: int = 0,
    ):
        self.live = live
        self.wal = wal
        self.lock = threading.Lock()
        self.rig = rig
        self.batches = 0
        self.replayed_batches = replayed_batches
        self.compactions = 0

    def info(self) -> dict[str, Any]:
        return {
            "documents": self.live.document_count,
            "segments": self.live.segment_count,
            "tombstones": self.live.tombstone_count,
            "batches": self.batches,
            "replayed_batches": self.replayed_batches,
            "compactions": self.compactions,
            "wal_bytes": self.wal.size_bytes(),
            "next_batch_seq": self.wal.next_seq,
        }


class _ReplicaState:
    """The replica side of WAL log shipping, on a backend node.

    A backend process holds no WAL of its own — the frontier's WAL *is*
    the durability story — so a replica is just a
    :class:`~repro.ingest.live.LiveCorpus` overlay rebased on the base
    engine this process loaded at spawn.  The base is captured at the
    first replicate call, before any shipped batch replaces the served
    engine, so a snapshot catch-up can always rebuild from scratch.

    ``lock`` serializes applies and snapshot replacements; reads never
    take it (they go through the handle's atomic publish, exactly like
    frontier-side ingest commits).
    """

    __slots__ = ("base_instance", "base_text", "rig", "live", "lock")

    def __init__(self, base_instance: Any, base_text: str, rig: Any):
        self.base_instance = base_instance
        self.base_text = base_text
        self.rig = rig
        self.live = LiveCorpus(base_instance, base_text)
        self.lock = threading.Lock()


#: Load failures worth retrying: transient I/O, injected faults, and
#: corruption (a *transient* injected corruption clears on re-read; a
#: persistent one exhausts the retries and reaches the rebuild path).
_RETRYABLE_LOAD = (StorageError, FaultInjected, OSError)


class QueryService:
    """See the module docstring.  Construct, then :meth:`execute`."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config if config is not None else ServerConfig()
        self.telemetry = Telemetry(
            query_log_capacity=self.config.query_log_capacity
        )
        if self.config.tracing:
            self.telemetry.enable_tracing()
        metrics = self.telemetry.metrics
        self._requests = metrics.counter(
            SERVER_REQUESTS_TOTAL, help="requests by endpoint and status"
        )
        self._request_seconds = metrics.histogram(
            SERVER_REQUEST_SECONDS, help="request wall time by endpoint"
        )
        self._queue_gauge = metrics.gauge(
            SERVER_QUEUE_DEPTH, help="requests waiting for a run slot"
        )
        self._inflight_gauge = metrics.gauge(
            SERVER_INFLIGHT, help="requests currently evaluating"
        )
        self._cache_hits = metrics.counter(SERVER_CACHE_HITS_TOTAL)
        self._cache_misses = metrics.counter(SERVER_CACHE_MISSES_TOTAL)
        self._cache_evictions = metrics.counter(SERVER_CACHE_EVICTIONS_TOTAL)
        self._rejected = metrics.counter(
            SERVER_REJECTED_TOTAL, help="admission rejections by reason"
        )
        self._timeouts = metrics.counter(SERVER_TIMEOUTS_TOTAL)
        self._shed = metrics.counter(
            SERVER_SHED_TOTAL, help="requests shed while unhealthy"
        )
        self._stale_served = metrics.counter(
            SERVER_STALE_SERVED_TOTAL,
            help="cache misses answered by an older generation",
        )
        self._retry_attempts = metrics.counter(
            RETRY_ATTEMPTS_TOTAL, help="retries by operation"
        )
        self._retry_exhausted = metrics.counter(
            RETRY_EXHAUSTED_TOTAL, help="retry budgets exhausted by operation"
        )
        self._breaker_state = metrics.gauge(
            BREAKER_STATE, help="0 closed, 1 half-open, 2 open"
        )
        self._breaker_transitions = metrics.counter(BREAKER_TRANSITIONS_TOTAL)
        self._health_state = metrics.gauge(
            SERVER_HEALTH_STATE, help="0 healthy, 1 degraded, 2 unhealthy"
        )
        self._health_transitions = metrics.counter(
            SERVER_HEALTH_TRANSITIONS_TOTAL
        )
        self._rebuilds = metrics.counter(
            INDEX_REBUILDS_TOTAL, help="indexes rebuilt from source text"
        )
        self._worker_deaths = metrics.counter(POOL_WORKER_DEATHS_TOTAL)
        self.health = HealthMonitor(
            window_seconds=self.config.health_window,
            degraded_threshold=self.config.degraded_threshold,
            unhealthy_threshold=self.config.unhealthy_threshold,
            min_samples=self.config.health_min_samples,
            probe_interval=self.config.probe_interval,
            on_transition=self._on_health_transition,
        )
        self._health_state.set(0)
        self._retry_policy = RetryPolicy(
            attempts=self.config.retry_attempts,
            base_delay=self.config.retry_base_delay,
            max_delay=self.config.retry_max_delay,
            budget=5.0,
        )
        self.cache = ResultCache(self.config.cache_capacity)
        self.pool = AdmissionGate(
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
            on_depth_change=self._queue_gauge.set,
        )
        # SLO observatory: always on (it only reads request outcomes);
        # a fast burn becomes health pressure, which degrades — or, if
        # configured, sheds — before the error budget is gone.
        self.slo = SLOObservatory.from_config(
            self.config, metrics=metrics, on_burn_change=self._on_burn_change
        )
        # Trace retention only exists when tracing is on; `None` is the
        # request path's single cheap "is tracing off?" check.
        self.traces: TraceStore | None = None
        self._sampler = HeadSampler(self.config.trace_sample_rate)
        if self.config.tracing:
            self.traces = TraceStore(
                capacity=self.config.trace_store_capacity,
                tail_capacity=self.config.trace_tail_capacity,
                slow_threshold=self.config.trace_slow_seconds,
                metrics=metrics,
            )
        # Live ingestion (docs/internals.md, "Segments, generations, and
        # the WAL"): per-corpus write state, plus the WAL directory — a
        # private temporary one when the config names none.
        self._ingest_ops = metrics.counter(
            INGEST_OPS_TOTAL, help="ingest operations applied, by kind"
        )
        self._ingest_batches = metrics.counter(
            INGEST_BATCHES_TOTAL, help="ingest batches by outcome"
        )
        self._ingest_commit_seconds = metrics.histogram(
            INGEST_COMMIT_SECONDS, help="ingest batch commit wall time"
        )
        self._ingest_documents = metrics.gauge(
            INGEST_DOCUMENTS, help="live ingested documents per corpus"
        )
        self._ingest_segments = metrics.gauge(
            INGEST_SEGMENTS, help="segments per corpus"
        )
        self._ingest_tombstones = metrics.gauge(
            INGEST_TOMBSTONES, help="tombstoned documents per corpus"
        )
        self._compaction_runs = metrics.counter(
            COMPACTION_RUNS_TOTAL, help="compactions that merged segments"
        )
        self._compaction_merged = metrics.counter(
            COMPACTION_MERGED_SEGMENTS_TOTAL, help="segments merged away"
        )
        self._compaction_seconds = metrics.histogram(
            COMPACTION_SECONDS, help="compaction wall time"
        )
        self._ingest: dict[str, _IngestState] = {}
        self._ingest_tmpdir: tempfile.TemporaryDirectory | None = None
        self._ingest_dir: Path | None = None
        if self.config.ingest_enabled:
            if self.config.ingest_dir is not None:
                self._ingest_dir = Path(self.config.ingest_dir)
            else:
                self._ingest_tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-ingest-"
                )
                self._ingest_dir = Path(self._ingest_tmpdir.name)
        self.compactor: BackgroundCompactor | None = None
        self._corpora: dict[str, _CorpusHandle] = {}
        self._corpora_lock = threading.Lock()
        self._started_at = monotonic()
        self._evictions_seen = 0
        self._closed = False
        for spec in self.config.corpora:
            self.add_corpus(spec)
        if self.config.ingest_enabled and self.config.compaction_enabled:
            self.compactor = BackgroundCompactor(
                self._compaction_candidates,
                self.compact,
                interval=self.config.compaction_interval,
                health=self.health,
            )
            self.compactor.start()
        # Backend topology (docs/server.md, "Topology & failover").  The
        # slice provider exists regardless: it also answers the
        # ``/shard/query`` endpoint when *this* process is someone
        # else's backend.
        self._slice_provider = SliceProvider(
            self._slice_lookup, tracer=self.telemetry.tracer
        )
        self._replication_lagging_reads = metrics.counter(
            REPLICATION_LAGGING_READS_TOTAL,
            help="shard reads refused for being behind the generation floor",
        )
        # Replica-side state for WAL log shipping: populated lazily on
        # the first replicate RPC when *this* process is a backend.
        self._replicas: dict[str, _ReplicaState] = {}
        self._replicas_lock = threading.Lock()
        self.frontier: FrontierExecutor | None = None
        self.supervisor = None
        self.replication = None
        if self.config.backend_nodes > 0:
            self._start_frontier()

    # ------------------------------------------------------------------
    # Health / breaker plumbing.
    # ------------------------------------------------------------------

    def _on_health_transition(self, old: str, new: str) -> None:
        self._health_state.set(_HEALTH_VALUES[new])
        self._health_transitions.inc(**{"from": old, "to": new})

    def _on_burn_change(self, name: str, active: bool) -> None:
        severity = (
            UNHEALTHY if self.config.slo_shed_on_fast_burn else DEGRADED
        )
        self.health.set_pressure(f"slo:{name}", active, severity=severity)

    def _make_breaker(self, pressure: str, **label: str) -> CircuitBreaker:
        """A breaker reported under ``label`` (``corpus=`` or ``node=``)
        in the ``breaker_*`` metrics.  While it is not closed it is
        external pressure named ``pressure``: the service is at least
        degraded while a corpus cannot be reloaded or a backend is down
        (never unhealthy on that account — queries still work)."""

        def on_transition(old: str, new: str) -> None:
            self._breaker_state.set(CircuitBreaker.STATE_VALUES[new], **label)
            self._breaker_transitions.inc(**label, **{"from": old, "to": new})
            self.health.set_pressure(pressure, new != CircuitBreaker.CLOSED)

        return CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_timeout=self.config.breaker_reset,
            on_transition=on_transition,
        )

    # ------------------------------------------------------------------
    # Backend topology.
    # ------------------------------------------------------------------

    def _slice_lookup(self, corpus: str):
        engine, generation = self._handle(corpus).snapshot()
        return engine.instance, generation

    def _start_frontier(self) -> None:
        config = self.config
        tracer = self.telemetry.tracer
        if config.backend_mode == "http":
            from repro.backend.httpclient import HTTPBackend
            from repro.backend.supervisor import BackendSupervisor

            extra_args: list[str] = []
            if config.tracing:
                extra_args += [
                    "--trace",
                    "--trace-sample",
                    str(config.trace_sample_rate),
                ]
            self.supervisor = BackendSupervisor(
                corpora=config.corpora,
                count=config.backend_nodes,
                host=config.host,
                respawn_delay=config.backend_respawn_delay,
                extra_args=extra_args,
                metrics=self.telemetry.metrics,
            )
            backends = [
                HTTPBackend(node_id, host, port)
                for node_id, host, port in self.supervisor.start()
            ]
        else:
            from repro.backend.inprocess import InProcessBackend

            backends = [
                InProcessBackend(f"b{i}", self._slice_provider)
                for i in range(config.backend_nodes)
            ]
        nodes = [
            BackendNode(
                backend,
                self._make_breaker(
                    f"backend:{backend.node_id}", node=backend.node_id
                ),
            )
            for backend in backends
        ]
        self.frontier = FrontierExecutor(
            nodes,
            groups=config.backend_groups,
            replicas=config.backend_replicas,
            hedge_quantile=config.backend_hedge_quantile,
            hedge_min_seconds=config.backend_hedge_min_seconds,
            hedge_budget=config.backend_hedge_budget,
            metrics=self.telemetry.metrics,
            tracer=tracer,
        )
        # Log shipping only matters across processes: in-process
        # backends read this service's own corpus handles, so every
        # commit is visible the instant it is installed.
        if (
            config.backend_mode == "http"
            and config.replication_enabled
            and config.ingest_enabled
        ):
            from repro.backend.replication import ReplicationCoordinator

            self.replication = ReplicationCoordinator(
                self.frontier,
                corpora=lambda: tuple(self._ingest),
                state_provider=self._replication_state,
                checksum_provider=self._replication_checksums,
                generation_provider=lambda name: self._handle(name).generation,
                metrics=self.telemetry.metrics,
                tracer=tracer,
                health=self.health,
                interval=config.replication_interval,
                lag_limit=config.replication_lag_limit,
            )
            self.replication.start()

    def _replication_state(self, corpus: str) -> tuple[dict[str, Any], int]:
        """A consistent ``(LiveCorpus.state dump, generation)`` pair for
        snapshot catch-up — the writer lock makes them agree."""
        handle = self._handle(corpus)
        state = self._ingest.get(handle.spec.name)
        if state is None:
            return {"through_batch": 0, "docs": []}, handle.generation
        with state.lock:
            return (
                state.live.state(through_batch=state.wal.last_seq),
                handle.generation,
            )

    def _replication_checksums(self, corpus: str) -> tuple[int, dict[int, str]]:
        """The frontier's own per-group content checksums — the truth
        the anti-entropy sweep measures replicas against."""
        return self._slice_provider.group_checksums(
            self._handle(corpus).spec.name, self.config.backend_groups
        )

    def shard_query(
        self,
        corpus: str | None,
        group: int,
        groups: int,
        queries: list[str],
        want: str,
        bounds: dict[str, int | None],
        deadline: float | None = None,
        trace: dict[str, Any] | None = None,
        floor: int = 0,
    ) -> dict[str, Any]:
        """Answer one backend RPC against this process's slice of
        ``corpus`` — the service half of ``POST /shard/query``.

        Any ``repro serve`` process can play the backend role; slices
        are built lazily from the ``(group, groups)`` coordinates and
        cached per corpus generation.  When ``trace`` carries the
        frontier's :class:`~repro.obs.context.TraceContext`, the
        evaluation runs under it and the finished ``backend.query`` span
        subtree is returned for frontier-side adoption.  A non-zero
        ``floor`` is the frontier's generation floor: answering from an
        older generation would time-travel an acknowledged write, so a
        behind replica refuses with
        :class:`~repro.errors.ReplicaLaggingError` (a 503 on the wire)
        and lets the frontier fail over.
        """
        name = self._handle(corpus).spec.name
        token = None
        if trace is not None and self.telemetry.tracer.enabled:
            token = _trace_context.activate(
                _trace_context.TraceContext.from_dict(trace)
            )
        try:
            result, span = self._slice_provider.shard_query(
                f"{self.config.host}:{self.config.port}",
                name,
                group,
                groups,
                queries,
                want,
                bounds,
                deadline=deadline,
                floor=floor,
            )
        except ReplicaLaggingError:
            self._replication_lagging_reads.inc(corpus=name)
            raise
        finally:
            if token is not None:
                _trace_context.restore(token)
        return {
            # A sets entry is PairColumns; as a list of (left, right)
            # tuples it encodes to the wire's [[left, right], …].
            "payload": [list(entry) for entry in result.payload],
            "generation": result.generation,
            "seconds": result.seconds,
            "node": result.node,
            "span": span_to_dict(span) if span is not None else None,
        }

    # ------------------------------------------------------------------
    # Replica-side replication RPCs (``POST /replicate/*``) — this
    # process playing backend to someone else's frontier.  See
    # :mod:`repro.backend.replication` for the shipping side.
    # ------------------------------------------------------------------

    def _replica_state(self, handle: _CorpusHandle) -> _ReplicaState:
        with self._replicas_lock:
            replica = self._replicas.get(handle.spec.name)
            if replica is None:
                engine = handle.engine
                replica = _ReplicaState(engine.instance, engine.text, engine.rig)
                self._replicas[handle.spec.name] = replica
            return replica

    def _replica_install(
        self, handle: _CorpusHandle, replica: _ReplicaState, generation: int
    ) -> int:
        engine = self._engine_from_live(handle.spec, replica)
        return handle.install(engine, generation=generation)

    def replicate_apply(
        self,
        corpus: str | None,
        seq: int,
        ops: list[dict[str, Any]],
        generation: int,
        checksum: str,
    ) -> dict[str, Any]:
        """Apply one shipped WAL batch, publishing exactly the
        frontier's ``generation``.

        The checksum is recomputed over the reassembled record — the
        same canonical-JSON sha256 the WAL uses on disk — so a payload
        corrupted in flight is rejected, never applied.  Statuses per
        :meth:`~repro.backend.base.ShardBackend.replicate_apply`.
        """
        handle = self._handle(corpus)
        name = handle.spec.name
        generation = int(generation)
        record = {
            "corpus": name,
            "seq": int(seq),
            "generation": generation,
            "ops": [dict(op) for op in ops],
        }
        replica = self._replica_state(handle)
        with replica.lock:
            current = handle.generation
            if wal_checksum(record) != str(checksum):
                return {
                    "corpus": name,
                    "applied": current,
                    "status": "checksum_mismatch",
                }
            if current >= generation:
                return {"corpus": name, "applied": current, "status": "stale"}
            if current != generation - 1:
                return {
                    "corpus": name,
                    "applied": current,
                    "status": "out_of_order",
                }
            try:
                replica.live.apply(record["ops"])
            except IngestError:
                # The frontier validated this batch before committing it,
                # so a rejection here means the replica's state drifted;
                # report it and let the sweep snapshot-repair.
                return {
                    "corpus": name,
                    "applied": current,
                    "status": "out_of_order",
                }
            applied = self._replica_install(handle, replica, generation)
        return {"corpus": name, "applied": applied, "status": "applied"}

    def replicate_snapshot(
        self, corpus: str | None, state: dict[str, Any], generation: int
    ) -> dict[str, Any]:
        """Replace this process's replica of ``corpus`` wholesale — the
        catch-up path when shipped history no longer covers the gap, and
        the anti-entropy repair.  The generation is forced to the
        frontier's even when it is not an increment (a divergence repair
        re-publishes the *same* generation with corrected content), so
        the slice and result caches are invalidated explicitly."""
        handle = self._handle(corpus)
        name = handle.spec.name
        replica = self._replica_state(handle)
        with replica.lock:
            replica.live = LiveCorpus.from_state(
                dict(state), replica.base_instance, replica.base_text
            )
            applied = self._replica_install(handle, replica, int(generation))
        self._slice_provider.invalidate(name)
        self.cache.invalidate((name,))
        return {"corpus": name, "applied": applied, "status": "applied"}

    def replicate_status(
        self, corpus: str | None, groups: int
    ) -> dict[str, Any]:
        """This process's replica position: applied generation plus one
        content checksum per shard group, for the anti-entropy sweep."""
        name = self._handle(corpus).spec.name
        applied, checksums = self._slice_provider.group_checksums(
            name, int(groups)
        )
        return {"corpus": name, "applied": applied, "checksums": checksums}

    def backends_info(self) -> dict[str, Any]:
        """Topology, breaker, and latency state (``GET /backends``)."""
        if self.frontier is None:
            return {"enabled": False}
        info: dict[str, Any] = {
            "enabled": True,
            "mode": self.config.backend_mode,
            **self.frontier.snapshot(),
            "placement": self.frontier.placement(self.corpus_names),
        }
        if self.supervisor is not None:
            info["processes"] = self.supervisor.describe()
        if self.replication is not None:
            info["replication"] = {
                "enabled": True,
                **self.replication.snapshot(),
            }
        else:
            info["replication"] = {"enabled": False}
        return info

    # ------------------------------------------------------------------
    # Corpus management.
    # ------------------------------------------------------------------

    def _shards_for(self, spec: CorpusSpec) -> int | None:
        """The effective shard count of a corpus: its own override, else
        the service default; ``None`` (plain evaluation) when it is 1."""
        shards = spec.shards if spec.shards is not None else self.config.shards
        return shards if shards > 1 else None

    def _load_engine(self, spec: CorpusSpec) -> Engine:
        """Build a corpus engine under retry; quarantine + rebuild from
        source when corruption survives the retries."""
        shards = self._shards_for(spec)

        def on_retry(_attempt: int, _delay: float, _exc: BaseException) -> None:
            self._retry_attempts.inc(op="load", corpus=spec.name)

        def on_exhausted(_exc: BaseException) -> None:
            self._retry_exhausted.inc(op="load", corpus=spec.name)

        try:
            return retry_call(
                lambda: _build_engine(spec, self.telemetry, shards),
                policy=self._retry_policy,
                retry_on=_RETRYABLE_LOAD,
                op=f"load:{spec.name}",
                on_retry=on_retry,
                on_exhausted=on_exhausted,
            )
        except CorruptIndexError:
            if spec.kind != "index" or not spec.source:
                raise
            from repro.engine.storage import quarantine_index

            quarantine_index(spec.path)
            engine = _rebuild_engine(spec, self.telemetry, shards)
            self._rebuilds.inc(corpus=spec.name)
            return engine

    def add_corpus(self, spec: CorpusSpec) -> None:
        with self._corpora_lock:
            if spec.name in self._corpora:
                raise ReproError(f"corpus {spec.name!r} is already served")
        engine = self._load_engine(spec)
        ingest_state = None
        if self.config.ingest_enabled:
            engine, ingest_state = self._recover_ingest(spec, engine)
        handle = _CorpusHandle(
            spec,
            engine,
            self._make_breaker(f"breaker:{spec.name}", corpus=spec.name),
        )
        with self._corpora_lock:
            if spec.name in self._corpora:
                raise ReproError(f"corpus {spec.name!r} is already served")
            self._corpora[spec.name] = handle
            if ingest_state is not None:
                self._ingest[spec.name] = ingest_state

    def _recover_ingest(
        self, spec: CorpusSpec, engine: Engine
    ) -> tuple[Engine, _IngestState | None]:
        """Attach the write path to a freshly loaded corpus: open its
        WAL, fold in the checkpoint snapshot, re-apply every committed
        batch past the watermark, and — when anything was recovered —
        rebuild the serving engine over the assembled instance.

        A corpus whose word index is not text-backed stays read-only
        (``None`` state; writes get :class:`IngestDisabledError`).
        """
        try:
            live = LiveCorpus(engine.instance, engine.text)
        except IngestError:
            return engine, None
        assert self._ingest_dir is not None
        wal = WriteAheadLog(
            self._ingest_dir,
            spec.name,
            fsync=self.config.ingest_fsync,
            metrics=self.telemetry.metrics,
        )
        snapshot = wal.load_snapshot()
        through = 0
        if snapshot is not None:
            live = LiveCorpus.from_state(snapshot, engine.instance, engine.text)
            through = int(snapshot["through_batch"])
        replayed = 0
        for _seq, ops in wal.replay(after=through):
            live.apply(ops)
            replayed += 1
        state = _IngestState(
            live, wal, rig=engine.rig, replayed_batches=replayed
        )
        if live.document_count or live.tombstone_count:
            engine = self._engine_from_live(spec, state)
        self._sync_ingest_gauges(spec.name, state)
        return engine, state

    def _engine_from_live(
        self, spec: CorpusSpec, state: "_IngestState | _ReplicaState"
    ) -> Engine:
        """A serving engine over the current assembled instance."""
        return Engine(
            state.live.instance,
            rig=state.rig,
            telemetry=self.telemetry,
            shards=self._shards_for(spec),
        )

    def _ingest_state(self, name: str) -> _IngestState:
        state = self._ingest.get(name)
        if state is None:
            if not self.config.ingest_enabled:
                raise IngestDisabledError(
                    "ingestion is disabled; start the server with ingest "
                    "enabled to accept writes"
                )
            raise IngestDisabledError(
                f"corpus {name!r} does not accept writes "
                "(its word index is not text-backed)"
            )
        return state

    def _sync_ingest_gauges(self, name: str, state: _IngestState) -> None:
        self._ingest_documents.set(state.live.document_count, corpus=name)
        self._ingest_segments.set(state.live.segment_count, corpus=name)
        self._ingest_tombstones.set(state.live.tombstone_count, corpus=name)

    def ingest(
        self, corpus: str | None, ops: list[dict[str, Any]]
    ) -> dict[str, Any]:
        """Commit one mutation batch; the unit behind ``POST /ingest``.

        Order of operations is the durability contract: validate (bad
        batches are rejected before touching disk), WAL-append (fsync'd;
        an acknowledged batch is exactly a durable one), apply to the
        live overlay, build the new engine, and atomically publish it as
        the next generation.  In-flight queries keep their snapshot; the
        result cache only retires generations that aged out of the
        keep-window, so degraded mode can still serve recent stale
        entries.
        """
        handle = self._handle(corpus)
        state = self._ingest_state(handle.spec.name)
        if (
            self.frontier is not None
            and self.config.backend_mode == "http"
            and self.replication is None
        ):
            # Remote backends serve their spawn-time snapshot; without
            # log shipping an accepted write would never reach them and
            # reads through the topology would silently diverge.
            raise IngestUnreplicatedError(handle.spec.name)
        started = perf_counter()
        count = len(ops) if isinstance(ops, list) else 0
        with maybe_span(
            self.telemetry.tracer,
            "ingest.commit",
            corpus=handle.spec.name,
            ops=count,
        ):
            with state.lock:
                try:
                    prepared = state.live.prepare(ops)
                except IngestError:
                    self._ingest_batches.inc(outcome="rejected")
                    raise
                try:
                    seq = state.wal.append_batch(prepared.ops)
                except Exception:
                    self._ingest_batches.inc(outcome="wal_failed")
                    raise
                state.live.commit(prepared)
                engine = self._engine_from_live(handle.spec, state)
                generation = handle.install(engine)
                state.batches += 1
                shipped = None
                if self.replication is not None:
                    # Ship inside the writer lock: batches leave in
                    # commit order, so replicas apply a pure sequence.
                    # A ship failure never fails the ingest — the batch
                    # is already durable in the WAL, and the sweep will
                    # walk lagging nodes forward.
                    shipped = self.replication.ship(
                        handle.spec.name, seq, prepared.ops, generation
                    )
        floor = generation - self.config.ingest_keep_generations + 1
        invalidated = self.cache.invalidate_generations_below(
            handle.spec.name, floor
        )
        for op in prepared.ops:
            self._ingest_ops.inc(kind=op["op"])
        self._ingest_batches.inc(outcome="committed")
        elapsed = perf_counter() - started
        self._ingest_commit_seconds.observe(elapsed, corpus=handle.spec.name)
        self._sync_ingest_gauges(handle.spec.name, state)
        response = {
            "corpus": handle.spec.name,
            "generation": generation,
            "batch_seq": seq,
            "applied": len(prepared.ops),
            "documents": state.live.document_count,
            "segments": state.live.segment_count,
            "tombstones": state.live.tombstone_count,
            "cache_invalidated": invalidated,
            "seconds": elapsed,
        }
        if shipped is not None:
            response["replication"] = shipped
        return response

    def compact(self, corpus: str | None = None) -> dict[str, Any]:
        """Merge segments, drop tombstones, checkpoint, truncate the WAL.

        Safe at any time: the merged overlay assembles to the exact same
        layout, so no generation bump (and no cache invalidation) is
        needed — in-flight and future queries are untouched.  The
        checkpoint happens whenever the WAL is non-empty, even when no
        segments needed merging, so replay work stays bounded.
        """
        handle = self._handle(corpus)
        state = self._ingest_state(handle.spec.name)
        started = perf_counter()
        with maybe_span(
            self.telemetry.tracer, "ingest.compact", corpus=handle.spec.name
        ):
            with state.lock:
                summary = state.live.compact()
                checkpointed = False
                if summary is not None or state.wal.size_bytes() > 0:
                    state.wal.save_snapshot(
                        state.live.state(through_batch=state.wal.last_seq)
                    )
                    state.wal.truncate()
                    checkpointed = True
                if summary is not None:
                    state.compactions += 1
        elapsed = perf_counter() - started
        if summary is not None:
            self._compaction_runs.inc(corpus=handle.spec.name)
            self._compaction_merged.inc(
                summary["merged_segments"], corpus=handle.spec.name
            )
        self._compaction_seconds.observe(elapsed, corpus=handle.spec.name)
        self._sync_ingest_gauges(handle.spec.name, state)
        return {
            "corpus": handle.spec.name,
            "compacted": summary is not None,
            "checkpointed": checkpointed,
            "generation": handle.generation,
            "segments": state.live.segment_count,
            "documents": state.live.document_count,
            "tombstones": state.live.tombstone_count,
            "seconds": elapsed,
            **(summary or {}),
        }

    def _compaction_candidates(self) -> list[str]:
        """Corpora the background compactor should visit: tombstones to
        drop, or enough small segments to cross the size-tier trigger."""
        config = self.config
        names = []
        for name, state in list(self._ingest.items()):
            live = state.live
            if live.tombstone_count > 0 or (
                live.small_segment_count(config.compaction_small_docs)
                >= config.compaction_min_segments
            ):
                names.append(name)
        return sorted(names)

    def ingest_info(self) -> dict[str, Any]:
        """Write-path state per corpus (surfaced in ``/healthz``)."""
        return {
            "enabled": self.config.ingest_enabled,
            "directory": str(self._ingest_dir) if self._ingest_dir else None,
            "corpora": {
                name: state.info()
                for name, state in sorted(self._ingest.items())
            },
        }

    def _handle(self, name: str | None) -> _CorpusHandle:
        with self._corpora_lock:
            if name is None:
                if len(self._corpora) == 1:
                    return next(iter(self._corpora.values()))
                raise UnknownCorpusError(
                    "(unspecified)", tuple(self._corpora)
                )
            try:
                return self._corpora[name]
            except KeyError:
                raise UnknownCorpusError(name, tuple(self._corpora)) from None

    @property
    def corpus_names(self) -> tuple[str, ...]:
        with self._corpora_lock:
            return tuple(sorted(self._corpora))

    def reload_corpus(self, name: str) -> dict[str, Any]:
        """Reload one corpus from its spec and invalidate its cache.

        Guarded by the corpus's circuit breaker: while it is open
        (repeated load failures), reloads short-circuit with
        :class:`~repro.errors.CorpusUnavailableError` — queries keep
        serving the last good engine either way.
        """
        handle = self._handle(name)
        breaker = handle.breaker
        if not breaker.allow():
            raise CorpusUnavailableError(
                handle.spec.name,
                retry_after=max(0.1, breaker.seconds_until_probe()),
            )
        try:
            engine = self._load_engine(handle.spec)
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
        state = self._ingest.get(handle.spec.name)
        if state is not None:
            # Rebase the live overlay onto the fresh base: surviving
            # ingested documents are re-appended on top of the reloaded
            # engine, so a reload never silently drops committed writes.
            with state.lock:
                rebased = LiveCorpus(engine.instance, engine.text)
                survivors = state.live.documents()
                if survivors:
                    rebased.apply(
                        [
                            {"op": "append", "id": doc_id, "text": text}
                            for doc_id, text in survivors
                        ]
                    )
                state.live = rebased
                state.rig = engine.rig
                if survivors:
                    engine = self._engine_from_live(handle.spec, state)
                generation = handle.install(engine)
            self._sync_ingest_gauges(handle.spec.name, state)
        else:
            generation = handle.install(engine)
        # A reload is a wholesale base swap: every cached generation of
        # this corpus is suspect, so invalidate by corpus prefix (the
        # generation-window retirement is only for ingest commits).
        invalidated = self.cache.invalidate((handle.spec.name,))
        return {
            "corpus": handle.spec.name,
            "generation": generation,
            "cache_invalidated": invalidated,
        }

    def corpora_info(self) -> list[dict[str, Any]]:
        with self._corpora_lock:
            handles = list(self._corpora.values())
        return [handle.info() for handle in handles]

    # ------------------------------------------------------------------
    # The request path.
    # ------------------------------------------------------------------

    def execute(
        self,
        query: str,
        corpus: str | None = None,
        optimize: bool | None = None,
        deadline: float | None = None,
        use_cache: bool = True,
        explain_only: bool = False,
    ) -> dict[str, Any]:
        """Run (or explain) one query; the unit behind ``POST /query``.

        Returns a JSON-ready response dict.  Raises
        :class:`UnknownCorpusError`, :class:`ServerOverloadedError`,
        :class:`~repro.errors.ServiceUnhealthyError` (load shed),
        :class:`~repro.errors.QueryTimeout`, or another
        :class:`~repro.errors.ReproError` (parse errors, unknown region
        names); each carries the HTTP status it is answered with.
        """
        endpoint = "explain" if explain_only else "query"
        started = perf_counter()
        trace = self._begin_trace(endpoint, query)
        status = "200"
        error: BaseException | None = None
        try:
            response = self._execute(
                endpoint, query, corpus, optimize, deadline, use_cache
            )
        except Exception as exc:
            status, error = str(http_status(exc)), exc
            if isinstance(exc, ServiceUnhealthyError):
                # The monitor's own shed decision: neither a success nor
                # an evaluation failure, so it does not feed back into
                # state.
                self._shed.inc()
                self._rejected.inc(reason="unhealthy")
            elif isinstance(exc, ServerOverloadedError):
                self._rejected.inc(reason="saturated")
            elif isinstance(exc, QueryTimeout):
                self._timeouts.inc()
                self.health.record_failure()
            elif isinstance(exc, (WorkerCrashedError, FaultInjected)):
                self.health.record_failure()
            # Everything else is the client's (parse, validation, an
            # unknown corpus) or unexpected: not a health signal.
            raise
        else:
            self.health.record_success()
            response["seconds"] = perf_counter() - started
            if trace is not None:
                response["trace_id"] = trace[0].trace_id
            return response
        finally:
            self._complete(endpoint, status, started, trace, error)

    # ------------------------------------------------------------------
    # Request-trace lifecycle.
    # ------------------------------------------------------------------

    _Trace = tuple  # (TraceContext, context token, span context, root span)

    def _begin_trace(self, endpoint: str, query: str) -> "_Trace | None":
        """Mint a trace context and open the request root span.

        Returns ``None`` when tracing is off.  The context is installed
        in this thread's contextvars; the request evaluates on this
        thread, so every span it opens nests under the root, and the
        frontier carries the context onward to any backend that waits.
        """
        if self.traces is None:
            return None
        trace_id = _trace_context.new_trace_id()
        sampled = self._sampler.sample(trace_id)
        context = _trace_context.TraceContext(trace_id, sampled=sampled)
        token = _trace_context.activate(context)
        span_context = self.telemetry.tracer.span(
            "request",
            endpoint=endpoint,
            trace_id=trace_id,
            sampled=sampled,
            query=query,
        )
        span = span_context.__enter__()
        if span is None:  # tracer flipped off mid-flight
            _trace_context.restore(token)
            return None
        return (context, token, span_context, span)

    def _complete(
        self,
        endpoint: str,
        status: str,
        started: float,
        trace: "_Trace | None",
        error: BaseException | None,
    ) -> None:
        """Request epilogue, success or not: finish and offer the trace,
        then record metrics (with an exemplar when the trace was kept)
        and feed the SLO observatory."""
        elapsed = perf_counter() - started
        exemplar = None
        if trace is not None:
            exemplar = self._finish_trace(endpoint, status, trace, error)
        self._requests.inc(endpoint=endpoint, status=status)
        self._request_seconds.observe(
            elapsed, exemplar=exemplar, endpoint=endpoint
        )
        self.slo.record(endpoint, status, elapsed)

    def _finish_trace(
        self,
        endpoint: str,
        status: str,
        trace: "_Trace",
        error: BaseException | None,
    ) -> str | None:
        """Close the root span, restore the context, and offer the tree
        to the store; returns the trace id if it was kept."""
        context, token, span_context, span = trace
        span.set("status", status)
        if error is not None:
            span.set("error", type(error).__name__)
            if isinstance(error, FaultInjected):
                span.set("fault", True)
            try:
                # Join handle for error envelopes and the query log.
                error.trace_id = context.trace_id  # type: ignore[attr-defined]
            except AttributeError:  # pragma: no cover - slotted exception
                pass
        span_context.__exit__(None, None, None)
        _trace_context.restore(token)
        reasons = self.traces.offer(
            context.trace_id,
            span,
            sampled=context.sampled,
            endpoint=endpoint,
            status=status,
            error=status in ("500", "504"),
        )
        return context.trace_id if reasons else None

    def _execute(
        self,
        endpoint: str,
        query: str,
        corpus: str | None,
        optimize: bool | None,
        deadline: float | None,
        use_cache: bool,
    ) -> dict[str, Any]:
        if self._closed:
            raise ServerOverloadedError("service is shutting down")
        if self.health.should_shed():
            raise ServiceUnhealthyError(
                "service is unhealthy and shedding load", retry_after=1.0
            )
        degraded = self.health.state != HEALTHY
        handle = self._handle(corpus)
        engine, generation = handle.snapshot()
        optimize = (
            self.config.optimize_default if optimize is None else bool(optimize)
        )
        if optimize and degraded and endpoint != "explain":
            # Degraded mode: skip the optimizer pass — evaluate the
            # parsed plan directly, trading plan quality for less work.
            optimize = False
        budget = self._clamp_deadline(deadline)
        # The one parse (+ view expansion and name check) of the request:
        # errors turn into 400s without taking a run slot, and the cache
        # key and the evaluation both come from this tree.
        expr = engine.prepare(query)
        if endpoint == "explain":
            plan, cache_hits = self._dispatch(
                budget,
                lambda _queued: engine.explain_with_caches(expr, text=query),
            )
            # Cache hits are reported distinctly: "plan_cache_hit" is the
            # engine's CostModel, "program_cache_hit" the compiled VM
            # program — a cost-model hit alone no longer masquerades as
            # a fully warmed query.
            return {
                "corpus": handle.spec.name,
                "generation": generation,
                "query": query,
                "plan": str(plan),
                "original_cost": plan.original_cost,
                "optimized_cost": plan.optimized_cost,
                "rewrites": list(plan.steps),
                "compiled": plan.compiled,
                "program": list(plan.program),
                "plan_cache_hit": cache_hits["plan_cache_hit"],
                "program_cache_hit": cache_hits["program_cache_hit"],
            }
        caching = use_cache and self.config.cache_enabled
        plan_key = to_text(expr)
        key = (handle.spec.name, generation, plan_key, optimize)
        if caching:
            cached = self._cache_get(key)
            if cached is not None:
                self._cache_hits.inc()
                return {**cached, "cached": True}
            self._cache_misses.inc()
            if degraded and self.config.stale_when_degraded:
                stale = self._stale_lookup(handle.spec.name, plan_key, optimize)
                if stale is not None:
                    self._stale_served.inc()
                    return {**stale, "cached": True, "stale": True}
        # ``engine`` is the snapshot captured alongside ``generation``;
        # the evaluation must use it rather than re-read ``handle.engine``,
        # or an ingest commit landing in between would pair a new engine
        # with the old generation — breaking snapshot isolation and
        # poisoning the generation-keyed cache.  The same captured
        # generation doubles as the read's replication floor.
        response = self._dispatch(
            budget,
            lambda queued: self._run_query(
                handle.spec.name,
                engine,
                generation,
                query,
                expr,
                optimize,
                budget,
                queued,
            ),
        )
        response.update(
            corpus=handle.spec.name, generation=generation, query=query
        )
        if caching:
            self.cache.put(key, dict(response))
        return {**response, "cached": False}

    def _cache_get(self, key: tuple) -> dict[str, Any] | None:
        """A cache probe that survives an injected ``cache.get`` fault:
        a failing cache is just a cache miss."""
        try:
            _faults.fire("cache.get")
        except FaultInjected:
            return None
        return self.cache.get(key)

    def _stale_lookup(
        self, corpus: str, plan_key: str, optimize: bool
    ) -> dict[str, Any] | None:
        """Degraded mode: a matching entry from *any* generation."""
        found = self.cache.get_where(
            lambda k: (
                isinstance(k, tuple)
                and len(k) == 4
                and k[0] == corpus
                and k[2] == plan_key
                and k[3] == optimize
            )
        )
        if found is None:
            return None
        _key, value = found
        return dict(value)

    def _dispatch(self, budget: float, run: Callable[[float], Any]) -> Any:
        """``run(queued_seconds)`` through the admission gate, on this
        thread, re-dispatching when the evaluation dies holding its run
        slot (``dispatch_retries`` budget)."""
        attempts = self.config.dispatch_retries + 1
        for attempt in range(attempts):
            try:
                return self.pool.run(run, budget)
            except WorkerCrashedError:
                self._worker_deaths.inc()
                if attempt + 1 >= attempts:
                    self._retry_exhausted.inc(op="dispatch")
                    raise
                self._retry_attempts.inc(op="dispatch")
        raise AssertionError("unreachable")  # pragma: no cover

    def _clamp_deadline(self, deadline: float | None) -> float:
        if deadline is None:
            return self.config.default_deadline
        if deadline <= 0:
            raise ReproError("deadline must be positive seconds")
        return min(float(deadline), self.config.max_deadline)

    def _run_query(
        self,
        corpus: str,
        engine: Engine,
        generation: int,
        query: str,
        expr: A.Expr,
        optimize: bool,
        budget: float,
        queued: float,
    ) -> dict[str, Any]:
        """In a run slot: evaluate with whatever budget queueing left."""
        remaining = budget - queued
        tracer = self.telemetry.tracer
        if tracer.enabled:
            # Backdated: the wait for a run slot, under the request span.
            tracer.record_span("queue.wait", queued, budget=budget)
        if remaining <= 0:
            raise QueryTimeout(budget)

        def evaluate_locally() -> Any:
            return engine.query(
                expr, optimize_query=optimize, deadline=remaining, text=query
            )

        self._inflight_gauge.inc()
        backend_info = None
        try:
            eval_started = perf_counter()
            if self.frontier is not None:
                planned = engine.plan(expr).optimized if optimize else expr
                result, backend_info = self._frontier_query(
                    corpus, generation, planned, remaining, evaluate_locally
                )
            else:
                result = evaluate_locally()
            eval_seconds = perf_counter() - eval_started
        except QueryTimeout as exc:
            # Report the client's budget, not what queueing left of it.
            elapsed = None if exc.elapsed is None else queued + exc.elapsed
            raise QueryTimeout(budget, elapsed) from None
        finally:
            self._inflight_gauge.dec()
        response = {
            "regions": result.pairs(),
            "cardinality": len(result),
            "optimized": optimize,
            "eval_seconds": eval_seconds,
            "queued_seconds": queued,
        }
        if backend_info is not None:
            response["backend"] = backend_info
        return response

    def _frontier_query(
        self,
        corpus: str,
        generation: int,
        planned: A.Expr,
        remaining: float,
        evaluate_locally: Callable[[], Any],
    ) -> tuple[Any, dict[str, Any]]:
        """Evaluate via the backend topology, falling back locally.

        Two fallbacks, both returning complete and correct results:
        ``unsupported`` (the plan cannot be sharded — e.g. a word
        occurrence spans a partition cut) is routine; ``unavailable``
        (some shard group lost *all* its replicas) marks the response
        degraded — the PR-5 invariant, now across processes: losing
        backends may cost the distributed path, never correctness.

        With replication active, the captured ``generation`` is stamped
        on the scatter as the read's floor: read-your-writes, because a
        replica still behind the acknowledged generation refuses rather
        than answers from the past (and if *every* replica of a group
        is behind, the local fallback — whose engine IS the captured
        snapshot — serves the exact floor generation).
        """
        frontier = self.frontier
        assert frontier is not None
        floor = generation if self.replication is not None else 0
        result, stats = frontier.query(
            corpus, planned, evaluate_locally, deadline=remaining, floor=floor
        )
        if stats.fallback is not None:
            return result, {
                "mode": self.config.backend_mode,
                "groups": self.config.backend_groups,
                "fallback": stats.fallback,
                "detail": stats.detail,
                "degraded": stats.degraded,
            }
        return result, {
            "mode": self.config.backend_mode,
            "groups": stats.groups,
            "replicas": frontier.replicas,
            "hedges": stats.hedges,
            "hedge_wins": stats.hedge_wins,
            "failovers": stats.failovers,
            "nodes": sorted(set(stats.nodes_used)),
            "degraded": False,
        }

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        with self._corpora_lock:
            breakers = {
                name: handle.breaker.snapshot()
                for name, handle in self._corpora.items()
            }
        faults = _faults.active()
        return {
            "status": "shutting-down" if self._closed else self.health.state,
            "uptime_seconds": monotonic() - self._started_at,
            "corpora": len(self.corpus_names),
            "health": self.health.snapshot(),
            "breakers": breakers,
            "faults": faults.snapshot() if faults is not None else None,
            "pool": self.pool.stats(),
            "cache": self.cache.snapshot(),
            "ingest": self.ingest_info(),
            "config": self.config.to_dict(),
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """The shared registry + query log, JSON-ready (``/metrics``)."""
        # Mirror cache/pool state into instruments so one registry
        # snapshot tells the whole story.
        snapshot = self.cache.snapshot()
        metrics = self.telemetry.metrics
        metrics.gauge("server_cache_entries").set(snapshot["entries"])
        new_evictions = snapshot["evictions"] - self._evictions_seen
        if new_evictions > 0:
            self._cache_evictions.inc(new_evictions)
            self._evictions_seen = snapshot["evictions"]
        self.slo.snapshot()  # refresh the slo_* gauges at scrape time
        return self.telemetry.snapshot()

    def slo_snapshot(self) -> dict[str, Any]:
        """Objectives, burn rates, and alert state (``/slo``)."""
        return {
            "objectives": self.slo.snapshot(),
            "health": self.health.snapshot(),
            "tracing": self.traces is not None,
            "traces": self.traces.stats() if self.traces is not None else None,
        }

    def trace_tree(self, trace_id: str) -> dict[str, Any] | None:
        """The stitched span tree of one kept trace, or ``None``."""
        if self.traces is None:
            return None
        kept = self.traces.get(trace_id)
        return kept.to_dict() if kept is not None else None

    def trace_summaries(
        self, limit: int = 50, sort: str = "recent"
    ) -> list[dict[str, Any]]:
        """Kept-trace listing rows (``/debug/traces``, ``repro top``)."""
        if self.traces is None:
            return []
        return self.traces.summaries(limit=limit, sort=sort)

    def close(self) -> None:
        """Stop admitting work and wait for requests in flight."""
        self._closed = True
        # The compactor goes first: it calls back into compact(), which
        # takes writer locks and touches the WAL — none of that should
        # race the teardown below.
        if self.compactor is not None:
            self.compactor.close()
        self.pool.close()
        # The replication sweep talks to backends, so it stops before
        # the frontier (whose close drops the transports) and the
        # supervisor (whose stop kills the processes it would dial).
        if self.replication is not None:
            self.replication.close()
        if self.frontier is not None:
            self.frontier.close()
        if self.supervisor is not None:
            self.supervisor.stop()
        with self._corpora_lock:
            handles = list(self._corpora.values())
        for handle in handles:
            handle.engine.close()
        if self._ingest_tmpdir is not None:
            self._ingest_tmpdir.cleanup()
            self._ingest_tmpdir = None
