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
  ``(corpus, generation, normalized plan)`` — reloading a corpus bumps
  the generation and eagerly invalidates its entries;
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
text when the spec names one; a :class:`~repro.server.health.HealthMonitor`
classifies the service healthy/degraded/unhealthy from request
outcomes — while degraded a cache miss may be answered by a stale entry
from an older generation, and while unhealthy load is shed with ``503``
except for a trickle of probes.
"""

from __future__ import annotations

import tempfile
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Callable, Iterator

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
    ReproError,
    ServerOverloadedError,
    ServiceUnhealthyError,
    StorageError,
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
    INDEX_REBUILDS_TOTAL,
    SERVER_CACHE_HITS_TOTAL,
    SERVER_CACHE_MISSES_TOTAL,
    SERVER_REQUEST_SECONDS,
    SERVER_REQUESTS_TOTAL,
)
from repro.server.cache import ResultCache
from repro.server.config import CorpusSpec, ServerConfig
from repro.server.health import DEGRADED, HEALTHY, UNHEALTHY, HealthMonitor
from repro.server.pool import AdmissionGate

__all__ = ["QueryService", "UnknownCorpusError"]

#: ``(corpus, engine, generation)`` of the read whose scatter is running
#: in this context — the snapshot this process's in-process groups read.
_READ_SNAPSHOT: ContextVar[tuple[str, Engine, int] | None] = ContextVar(
    "repro_read_snapshot", default=None
)


class UnknownCorpusError(ReproError):
    """A request named a corpus the service does not serve."""

    code = "unknown_corpus"
    status = 404

    def __init__(self, name: str, known: tuple[str, ...]):
        self.name = name
        self.known = known
        hint = f"; serving: {', '.join(sorted(known))}" if known else ""
        super().__init__(f"unknown corpus {name!r}{hint}")


def _build_engine(spec: CorpusSpec, telemetry: Telemetry) -> Engine:
    """Load one corpus per its spec, sharing the service telemetry."""
    if spec.kind == "index":
        return Engine.load(spec.path, telemetry=telemetry)
    if spec.kind == "synthetic":
        return _index_text(_synthesize(spec), spec.path, telemetry)
    text = Path(spec.path).read_text(encoding="utf-8")
    return _index_text(text, spec.kind, telemetry)


def _index_text(text: str, text_format: str, telemetry: Telemetry) -> Engine:
    """Index program source (Figure 1 RIG) or, by default, tagged text."""
    if text_format == "source":
        return Engine.from_source(text, telemetry=telemetry)
    return Engine.from_tagged_text(text, telemetry=telemetry)


def _rebuild_engine(spec: CorpusSpec, telemetry: Telemetry) -> Engine:
    """Rebuild an ``index`` corpus from its source document and try to
    re-save the index file (best-effort) — the corruption-recovery path."""
    from repro.engine.storage import save_instance

    text = Path(spec.source).read_text(encoding="utf-8")
    engine = _index_text(text, spec.source_format, telemetry)
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
    """One served corpus: engine + generation + reload lock + breaker,
    and the live state of a corpus that takes writes.

    The engine and its generation are published together as one tuple
    so a reader can capture a consistent ``(engine, generation)`` pair
    with a single attribute load — two separate reads could interleave
    with :meth:`install` and pair a new engine with an old generation
    (or vice versa), which breaks generation-keyed caching.
    """

    __slots__ = ("spec", "_published", "loaded_at", "lock", "breaker", "state")

    def __init__(self, spec: CorpusSpec, engine: Engine, breaker: CircuitBreaker):
        self.spec = spec
        self._published: tuple[Engine, int] = (engine, 1)
        self.loaded_at = monotonic()
        # Serializes installs and attaching a live state, not queries.
        self.lock = threading.RLock()
        self.breaker = breaker
        self.state: _LiveState | None = None

    @property
    def engine(self) -> Engine:
        return self._published[0]

    @property
    def generation(self) -> int:
        return self._published[1]

    def snapshot(self) -> tuple[Engine, int]:
        """The atomically consistent ``(engine, generation)`` pair."""
        return self._published

    def install(self, engine: Engine, generation: int | None = None) -> int:
        """Swap in a freshly loaded engine; returns the new generation.

        Queries already running keep the old engine (their reference
        keeps it alive); new requests see the new generation atomically.

        ``generation`` forces the published generation instead of
        bumping — the write routes, which decide the number themselves
        (:meth:`QueryService._publish`).
        """
        with self.lock:
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
        if "pieces" in stats:
            info["pieces"] = stats["pieces"]
        return info


class _LiveState:
    """The write state of one corpus: a :class:`LiveCorpus` overlay on
    ``base`` — the ``(instance, text)`` a snapshot repair or a reload
    rebuilds it from.  The role is ``wal``: a corpus with one takes
    writes by ``POST /ingest`` and mints its generations; one without
    is a replica, written only by ship at the frontier's generations.

    ``lock`` serializes writers; readers never take it — they see engine
    swaps through :meth:`_CorpusHandle.install`, which is what makes
    reads snapshot-isolated against concurrent writes.
    """

    __slots__ = (
        "live",
        "lock",
        "rig",
        "base",
        "wal",
        "batches",
        "replayed_batches",
        "compactions",
    )

    def __init__(self, engine: Engine):
        self.base = (engine.instance, engine.text)
        self.live = LiveCorpus(*self.base)
        self.lock = threading.Lock()
        self.rig = engine.rig
        self.wal: WriteAheadLog | None = None
        self.batches = 0
        self.replayed_batches = 0
        self.compactions = 0

    def rebuild(self, state: dict[str, Any]) -> None:
        """Replace the overlay with ``state``'s documents over the base."""
        self.live = LiveCorpus.from_state(state, *self.base)

    def rebase(self, engine: Engine) -> None:
        """Re-append the surviving documents over a freshly loaded base,
        so a reload never silently drops a committed write."""
        survivors = self.live.state(through_batch=0)
        self.base = (engine.instance, engine.text)
        self.rig = engine.rig
        self.rebuild(survivors)

    def info(self) -> dict[str, Any]:
        wal = self.wal
        return {
            "documents": self.live.document_count,
            "segments": self.live.segment_count,
            "tombstones": self.live.tombstone_count,
            "batches": self.batches,
            "replayed_batches": self.replayed_batches,
            "compactions": self.compactions,
            "wal_bytes": wal.size_bytes() if wal is not None else None,
            "next_batch_seq": wal.next_seq if wal is not None else None,
        }


#: Load failures worth retrying: transient I/O, injected faults, and
#: corruption (a *transient* injected corruption clears on re-read; a
#: persistent one exhausts the retries and reaches the rebuild path).
_RETRYABLE_LOAD = (StorageError, FaultInjected, OSError)

#: Generations of a corpus whose cache entries an ingest commit keeps
#: resident: the current one, plus the one before it for degraded mode
#: to serve stale (a reload still invalidates the whole corpus).
_KEEP_GENERATIONS = 2

#: The compactor's size tier: a segment holding this many live documents
#: or fewer counts toward ``compaction_min_segments``.
_COMPACTION_SMALL_DOCS = 32


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
        self._cache_hits = metrics.counter(SERVER_CACHE_HITS_TOTAL)
        self._cache_misses = metrics.counter(SERVER_CACHE_MISSES_TOTAL)
        self._rebuilds = metrics.counter(
            INDEX_REBUILDS_TOTAL, help="indexes rebuilt from source text"
        )
        self.health = HealthMonitor(
            window_seconds=self.config.health_window,
            degraded_threshold=self.config.degraded_threshold,
            unhealthy_threshold=self.config.unhealthy_threshold,
            min_samples=self.config.health_min_samples,
            probe_interval=self.config.probe_interval,
        )
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
        )
        # SLO observatory: always on (it only reads request outcomes);
        # a fast burn becomes health pressure, which degrades — or, if
        # configured, sheds — before the error budget is gone.
        self.slo = SLOObservatory.from_config(
            self.config, on_burn_change=self._on_burn_change
        )
        # Trace retention only exists when tracing is on; `None` is the
        # request path's single cheap "is tracing off?" check.
        self.traces: TraceStore | None = None
        self._sampler = HeadSampler(self.config.trace_sample_rate)
        if self.config.tracing:
            self.traces = TraceStore(
                tail_capacity=self.config.trace_tail_capacity,
                slow_threshold=self.config.trace_slow_seconds,
            )
        # Live ingestion (docs/internals.md, "Segments, generations, and
        # the WAL"): each handle's live state, plus the WAL directory — a
        # private temporary one when the config names none.
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
        self._closed = False
        # The topology starts after the corpora load, so a recovered
        # corpus publishes with no replicas to reach.
        self.frontier: FrontierExecutor | None = None
        self.supervisor = None
        self.replication = None
        for spec in self.config.corpora:
            self.add_corpus(spec)
        # Backend topology (docs/server.md, "Topology & failover").  The
        # slice provider exists regardless: it also answers the
        # ``/shard/query`` endpoint when *this* process is someone
        # else's backend.
        self._slice_provider = SliceProvider(
            self._slice_lookup, tracer=self.telemetry.tracer
        )
        if self.config.backend_nodes > 0:
            self._start_frontier()

    # ------------------------------------------------------------------
    # Health / breaker plumbing.
    # ------------------------------------------------------------------

    def _on_burn_change(self, name: str, active: bool) -> None:
        severity = (
            UNHEALTHY if self.config.slo_shed_on_fast_burn else DEGRADED
        )
        self.health.set_pressure(f"slo:{name}", active, severity=severity)

    def _make_breaker(self, pressure: str) -> CircuitBreaker:
        """A breaker that, while it is not closed, is external pressure
        named ``pressure``: the service is at least degraded while a
        corpus cannot be reloaded or a backend is down (never unhealthy
        on that account — queries still work)."""

        def on_transition(_old: str, new: str) -> None:
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
        """What a slice of ``corpus`` is cut from: the snapshot the
        request scattering it captured (this process's in-process
        groups), else the corpus's current one (a remote frontier's
        ``/shard/query``, the anti-entropy checksums)."""
        captured = _READ_SNAPSHOT.get()
        if captured is not None and captured[0] == corpus:
            engine, generation = captured[1], captured[2]
        else:
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
                self._make_breaker(f"backend:{backend.node_id}"),
            )
            for backend in backends
        ]
        self.frontier = FrontierExecutor(
            nodes,
            groups=config.backend_groups,
            replicas=config.backend_replicas,
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
                corpora=lambda: tuple(
                    name
                    for name, state in self._live_states()
                    if state.wal is not None
                ),
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

    @contextmanager
    def _replication_state(
        self, corpus: str
    ) -> Iterator[tuple[int, Callable[[], dict[str, Any]]]]:
        """Hold ``corpus``'s writer lock and yield its generation with a
        dump of its live state at that generation: a snapshot repair
        sent inside takes its place among the ships, which leave under
        the same lock."""
        handle = self._handle(corpus)
        state = handle.state
        with state.lock:
            yield handle.generation, lambda: state.live.state(
                through_batch=state.wal.last_seq
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
        ``floor`` is the read's generation: answering from an older one
        would time-travel an acknowledged write, and from a newer one
        would mix generations within one read, so a replica at any other
        generation refuses with :class:`~repro.errors.ReplicaLaggingError`
        (a 503 on the wire) and lets the frontier fail over.
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

    def _replica(self, handle: _CorpusHandle) -> _LiveState:
        """The live state a shipped write lands in: attached over the
        served engine on the first ship.  A corpus that owns a WAL
        refuses — its content is exactly its log, and a shipped batch
        would publish a generation no WAL holds."""
        with handle.lock:
            if handle.state is None:
                handle.state = _LiveState(handle.engine)
        state = handle.state
        if state.wal is not None:
            raise IngestError(
                f"corpus {handle.spec.name!r} owns a write-ahead log; it "
                "takes writes by POST /ingest, not by replication"
            )
        return state

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
        state = self._replica(handle)
        with state.lock:
            current = handle.generation
            if wal_checksum(record) != str(checksum):
                status = "checksum_mismatch"
            elif current >= generation:
                status = "stale"
            elif current != generation - 1:
                status = "out_of_order"
            else:
                try:
                    state.live.apply(record["ops"])
                except IngestError:
                    # The frontier validated this batch before committing
                    # it, so a rejection here means the replica's state
                    # drifted; report it and let the sweep repair.
                    status = "out_of_order"
                else:
                    current, _ = self._publish(handle, state, generation)
                    status = "applied"
        return {"corpus": name, "applied": current, "status": status}

    def replicate_snapshot(
        self, corpus: str | None, state: dict[str, Any], generation: int
    ) -> dict[str, Any]:
        """Replace this process's replica of ``corpus`` wholesale — the
        coordinator's one repair, for a gap and for divergence alike.
        The generation is forced to the frontier's even when it is not
        an increment (a divergence repair re-publishes the *same*
        generation with corrected content), so the result cache is
        invalidated explicitly; the slice provider recuts on its own,
        seeing a new instance."""
        handle = self._handle(corpus)
        name = handle.spec.name
        replica = self._replica(handle)
        with replica.lock:
            replica.rebuild(dict(state))
            applied, _ = self._publish(handle, replica, int(generation))
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

    def _load_engine(self, spec: CorpusSpec) -> Engine:
        """Build a corpus engine under retry; quarantine + rebuild from
        source when corruption survives the retries."""
        try:
            return retry_call(
                lambda: _build_engine(spec, self.telemetry),
                policy=self._retry_policy,
                retry_on=_RETRYABLE_LOAD,
                op=f"load:{spec.name}",
            )
        except CorruptIndexError:
            if spec.kind != "index" or not spec.source:
                raise
            from repro.engine.storage import quarantine_index

            quarantine_index(spec.path)
            engine = _rebuild_engine(spec, self.telemetry)
            self._rebuilds.inc(corpus=spec.name)
            return engine

    def add_corpus(self, spec: CorpusSpec) -> None:
        with self._corpora_lock:
            if spec.name in self._corpora:
                raise ReproError(f"corpus {spec.name!r} is already served")
        engine = self._load_engine(spec)
        handle = _CorpusHandle(
            spec,
            engine,
            self._make_breaker(f"breaker:{spec.name}"),
        )
        if self.config.ingest_enabled:
            handle.state = state = self._recover(spec, engine)
            if state is not None and (
                state.live.document_count or state.live.tombstone_count
            ):
                # Generation 1 is the base every blank replica loads, so
                # recovered writes are published as a later generation:
                # one number never names two contents across a restart.
                with state.lock:
                    self._publish(handle, state)
        with self._corpora_lock:
            if spec.name in self._corpora:
                raise ReproError(f"corpus {spec.name!r} is already served")
            self._corpora[spec.name] = handle

    def _recover(self, spec: CorpusSpec, engine: Engine) -> _LiveState | None:
        """The write state of a freshly loaded corpus: open its WAL,
        fold in the checkpoint snapshot, and re-apply every committed
        batch past the watermark.

        A corpus whose word index is not text-backed stays read-only
        (``None``; writes get :class:`IngestDisabledError`).
        """
        try:
            state = _LiveState(engine)
        except IngestError:
            return None
        assert self._ingest_dir is not None
        state.wal = WriteAheadLog(
            self._ingest_dir,
            spec.name,
            fsync=self.config.ingest_fsync,
        )
        snapshot = state.wal.load_snapshot()
        through = 0
        if snapshot is not None:
            state.rebuild(snapshot)
            through = int(snapshot["through_batch"])
        for _seq, ops in state.wal.replay(after=through):
            state.live.apply(ops)
            state.replayed_batches += 1
        return state

    def _publish(
        self,
        handle: _CorpusHandle,
        state: _LiveState,
        generation: int | None = None,
        batch: tuple[int, list[dict[str, Any]]] | None = None,
    ) -> tuple[int, dict[str, Any] | None]:
        """Serve ``state``'s live corpus as ``handle``'s engine — the one
        body every write route ends in; the caller holds ``state.lock``.

        ``generation`` forces the number (a replica's, the frontier's);
        else a corpus with a WAL mints the next and a replica keeps its
        own.  A minted generation reaches the replicas before the
        install, so no read is stamped with a generation still in
        flight: ``batch``, a committed ``(seq, ops)``, is shipped, and
        without one (a reload) the replicas get a snapshot.  Returns the
        generation and the ship summary.
        """
        if generation is None:
            generation = handle.generation + (state.wal is not None)
        shipped = None
        replication = self.replication
        if replication is not None and state.wal is not None:
            name = handle.spec.name
            if batch is not None:
                shipped = replication.ship(name, *batch, generation)
            else:
                shipped = replication.resync(
                    name,
                    generation,
                    state.live.state(through_batch=state.wal.last_seq),
                )
        handle.install(
            Engine.from_live(
                state.live,
                rig=state.rig,
                telemetry=self.telemetry,
                previous=handle.engine,
            ),
            generation,
        )
        self._start_compactor()
        return generation, shipped

    def _writer(self, handle: _CorpusHandle, wal: bool) -> _LiveState:
        """``handle``'s live state, or :class:`IngestDisabledError` when
        it has none — or, with ``wal``, when it is a replica."""
        state = handle.state
        if state is not None and (state.wal is not None or not wal):
            return state
        if not self.config.ingest_enabled:
            raise IngestDisabledError(
                "ingestion is disabled; start the server with ingest "
                "enabled to accept writes"
            )
        raise IngestDisabledError(
            f"corpus {handle.spec.name!r} does not accept writes "
            "(its word index is not text-backed)"
        )

    def _start_compactor(self) -> None:
        """Start the background compactor at the first publish: only a
        published write leaves segments, tombstones or a WAL to fold."""
        config = self.config
        with self._corpora_lock:
            if self.compactor or self._closed or not config.compaction_enabled:
                return
            self.compactor = BackgroundCompactor(
                self._compaction_candidates,
                self.compact,
                interval=config.compaction_interval,
                health=self.health,
            )
            self.compactor.start()

    def _live_states(self) -> list[tuple[str, _LiveState]]:
        """``(name, state)`` of every corpus holding live state."""
        with self._corpora_lock:
            handles = list(self._corpora.values())
        return sorted(
            (handle.spec.name, handle.state)
            for handle in handles
            if handle.state is not None
        )

    def ingest(
        self, corpus: str | None, ops: list[dict[str, Any]]
    ) -> dict[str, Any]:
        """Commit one mutation batch; the unit behind ``POST /ingest``.

        Order of operations is the durability contract: validate (bad
        batches are rejected before touching disk), WAL-append (fsync'd;
        an acknowledged batch is exactly a durable one), apply to the
        live overlay, ship to the replicas, and atomically publish the
        next generation (:meth:`_publish`) — the ack follows, so the
        writer's next read sees its write.  In-flight queries keep their
        snapshot; the result cache only retires generations that aged
        out of the keep-window, so degraded mode can still serve recent
        stale entries.
        """
        handle = self._handle(corpus)
        state = self._writer(handle, wal=True)
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
                prepared = state.live.prepare(ops)
                seq = state.wal.append_batch(prepared.ops)
                state.live.commit(prepared)
                state.batches += 1
                # Shipped inside the writer lock: batches leave in commit
                # order, so replicas apply a pure sequence.  A ship
                # failure never fails the ingest — the batch is already
                # durable in the WAL, and the sweep snapshot-repairs a
                # node that missed it.
                generation, shipped = self._publish(
                    handle, state, batch=(seq, prepared.ops)
                )
        floor = generation - _KEEP_GENERATIONS + 1
        invalidated = self.cache.invalidate_generations_below(
            handle.spec.name, floor
        )
        elapsed = perf_counter() - started
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
        segments needed merging, so replay work stays bounded; a
        replica has no WAL and only merges.
        """
        handle = self._handle(corpus)
        state = self._writer(handle, wal=False)
        wal = state.wal
        started = perf_counter()
        with maybe_span(
            self.telemetry.tracer, "ingest.compact", corpus=handle.spec.name
        ):
            with state.lock:
                summary = state.live.compact()
                checkpointed = False
                if wal is not None and (
                    summary is not None or wal.size_bytes() > 0
                ):
                    wal.save_snapshot(
                        state.live.state(through_batch=wal.last_seq)
                    )
                    wal.truncate()
                    checkpointed = True
                if summary is not None:
                    state.compactions += 1
        elapsed = perf_counter() - started
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
        return [
            name
            for name, state in self._live_states()
            if state.live.tombstone_count > 0
            or state.live.small_segment_count(_COMPACTION_SMALL_DOCS)
            >= self.config.compaction_min_segments
        ]

    def ingest_info(self) -> dict[str, Any]:
        """Write-path state per corpus (surfaced in ``/healthz``)."""
        return {
            "enabled": self.config.ingest_enabled,
            "directory": str(self._ingest_dir) if self._ingest_dir else None,
            "corpora": {
                name: state.info() for name, state in self._live_states()
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
        with handle.lock:
            state = handle.state
            if state is None:
                generation = handle.install(engine)
        if state is not None:
            # A corpus with a WAL publishes its rebased overlay as its
            # next generation, once its replicas hold it; a replica
            # re-publishes the one it holds, which only its frontier's
            # ships move.
            with state.lock:
                state.rebase(engine)
                generation, _ = self._publish(handle, state)
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
            response = self._execute(endpoint, query, corpus, deadline, use_cache)
        except Exception as exc:
            status, error = str(http_status(exc)), exc
            # Only a timeout or an injected fault is a health signal.  A
            # shed or an overload is the monitor's and the gate's own
            # decision; everything else is the client's (parse,
            # validation, an unknown corpus) or unexpected.
            if isinstance(exc, (QueryTimeout, FaultInjected)):
                self.health.record_failure()
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
        budget = self._clamp_deadline(deadline)
        # The one parse (+ view expansion and name check) of the request:
        # errors turn into 400s without taking a run slot, and the cache
        # key and the evaluation both come from this tree.
        expr = engine.prepare(query)
        if endpoint == "explain":
            plan, cache_hits = self.pool.run(
                lambda _queued: engine.explain_with_caches(expr, text=query),
                budget,
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
        key = (handle.spec.name, generation, plan_key)
        if caching:
            cached = self._cache_get(key)
            if cached is not None:
                self._cache_hits.inc()
                return {**cached, "cached": True}
            self._cache_misses.inc()
            if degraded:
                stale = self._stale_lookup(handle.spec.name, plan_key)
                if stale is not None:
                    return {**stale, "cached": True, "stale": True}
        # ``engine`` is the snapshot captured alongside ``generation``;
        # the evaluation must use it rather than re-read ``handle.engine``,
        # or an ingest commit landing in between would pair a new engine
        # with the old generation — breaking snapshot isolation and
        # poisoning the generation-keyed cache.  Replicas answer at
        # exactly this captured generation too.
        response = self.pool.run(
            lambda queued: self._run_query(
                handle.spec.name,
                engine,
                generation,
                query,
                expr,
                budget,
                queued,
            ),
            budget,
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

    def _stale_lookup(self, corpus: str, plan_key: str) -> dict[str, Any] | None:
        """Degraded mode: a matching entry from *any* generation."""
        found = self.cache.get_where(
            lambda k: (
                isinstance(k, tuple)
                and len(k) == 3
                and k[0] == corpus
                and k[2] == plan_key
            )
        )
        if found is None:
            return None
        _key, value = found
        return dict(value)

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
            return engine.query(expr, deadline=remaining, text=query)

        backend_info = None
        try:
            eval_started = perf_counter()
            if self.frontier is not None:
                result, backend_info = self._frontier_query(
                    corpus, engine, generation, query, expr, remaining,
                    evaluate_locally,
                )
            else:
                result = evaluate_locally()
            eval_seconds = perf_counter() - eval_started
        except QueryTimeout as exc:
            # Report the client's budget, not what queueing left of it.
            elapsed = None if exc.elapsed is None else queued + exc.elapsed
            raise QueryTimeout(budget, elapsed) from None
        response = {
            "regions": result.pairs(),
            "cardinality": len(result),
            "eval_seconds": eval_seconds,
            "queued_seconds": queued,
        }
        if backend_info is not None:
            response["backend"] = backend_info
        return response

    def _frontier_query(
        self,
        corpus: str,
        engine: Engine,
        generation: int,
        query: str,
        expr: A.Expr,
        remaining: float,
        evaluate_locally: Callable[[], Any],
    ) -> tuple[Any, dict[str, Any]]:
        """Evaluate via the backend topology, falling back locally.

        Three fallbacks, all returning complete and correct results:
        ``unsupported`` (the plan cannot be sharded — e.g. a word
        occurrence spans a partition cut) and ``superseded`` (every
        replica of a group has already committed past the read's
        generation) are routine; ``unavailable`` (some shard group lost
        *all* its replicas) marks the response degraded — losing
        backends may cost the distributed path, never correctness.

        With replication active, the captured ``generation`` is stamped
        on every call of the scatter, and a replica at any other
        generation refuses: read-your-writes, because a replica still
        behind the acknowledged generation never answers from the past,
        and one answer, because a replica already past it never mixes a
        newer generation into an exchange or a group.  If *no* replica
        of a group is at it, the local fallback — whose engine IS the
        captured snapshot — serves that generation.

        A read the frontier answers is logged through the captured
        engine's :meth:`~repro.engine.session.Engine.record`, as a local
        read is by ``engine.query``: it lands in the query log with its
        trace id.

        In-process groups cut their slices from the captured ``engine``
        itself, handed to :meth:`_slice_lookup` through
        ``_READ_SNAPSHOT`` (pooled groups inherit it by
        ``copy_context``): a commit landing mid-request cannot change
        what the request reads.
        """
        frontier = self.frontier
        assert frontier is not None
        floor = generation if self.replication is not None else 0
        started = perf_counter()
        token = _READ_SNAPSHOT.set((corpus, engine, generation))
        try:
            result, stats = frontier.query(
                corpus, expr, evaluate_locally, deadline=remaining, floor=floor
            )
        finally:
            _READ_SNAPSHOT.reset(token)
        if stats.fallback is not None:
            return result, {
                "mode": self.config.backend_mode,
                "groups": self.config.backend_groups,
                "fallback": stats.fallback,
                "detail": stats.detail,
                "degraded": stats.degraded,
            }
        # The request's one parse happened at admission.
        engine.record(
            kind="query",
            query=query,
            executed=expr,
            plan=None,
            result=result,
            seconds=perf_counter() - started,
            stats=None,
        )
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
        self.slo.poll()  # a scrape lets a fast burn clear when traffic stops
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
