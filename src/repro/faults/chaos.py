"""The four ``repro chaos`` modes, each a
:class:`~repro.faults.scenario.Scenario` declaration: ``service`` (fault
points across one in-process service under reload churn),
``backend-kill`` (SIGKILL a shard backend under load), ``ingest`` (writes
under WAL faults and a cold restart) and ``replication`` (replicated
writes under ship faults, a frontier restart and a replica SIGKILL).
:func:`run_chaos` runs the one a :class:`ChaosConfig` names;
``docs/robustness.md`` lists each mode's invariants.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import monotonic, sleep
from typing import Any

from repro.errors import ReproError
from repro.faults.registry import FaultSpec
from repro.faults.scenario import (
    CHAOS_EXTRA_QUERIES,
    Phase,
    Run,
    Scenario,
    ScenarioReport,
    counts_line,
    execute,
    index_corpus,
    live_corpus,
    mirror_oracle,
)
from repro.obs.metrics import (
    BACKEND_FAILOVERS_TOTAL,
    BACKEND_HEDGES_TOTAL,
    BACKEND_REQUESTS_TOTAL,
    FRONTIER_FALLBACK_TOTAL,
    INDEX_REBUILDS_TOTAL,
    REPLICATION_BATCHES_SHIPPED_TOTAL,
    REPLICATION_CATCHUPS_TOTAL,
    REPLICATION_DIVERGENCE_TOTAL,
    REPLICATION_SHIP_FAILURES_TOTAL,
    parse_label_text,
)
from repro.server.config import ServerConfig
from repro.workloads.queries import PLAY_QUERIES

__all__ = ["MODES", "BackendKillReport", "ChaosConfig", "ChaosReport",
           "IngestReport", "ReplicationReport", "run_chaos"]

MODES = ("service", "backend-kill", "ingest", "replication")


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one chaos run; the defaults are ``repro chaos``'s."""

    mode: str = "service"  #: one of ``MODES``
    seed: int = 0
    scale: int = 2  #: size of each generated play
    #: the shard groups the corpus is scattered over (at least 2)
    shards: int = 2
    qps: float = 60.0
    concurrency: int = 4
    warmup_seconds: float = 1.0
    fault_seconds: float = 4.0  #: the fault phase (backend-kill: the kill)
    recovery_seconds: float = 3.0
    #: the storage fault probability; each mode derives its rates from it
    fault_rate: float = 0.05
    corrupt_disk: bool = True  #: service: corrupt the index file once
    reload_period: float = 0.4  #: service: reload churn period
    breaker_reset: float = 1.0
    respawn_delay: float = 0.3  #: backend subprocess respawn delay
    write_rate: float | None = None  #: ingest batches/s (None: mode's own)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown chaos mode {self.mode!r} (one of {', '.join(MODES)})"
            )


def run_chaos(config: ChaosConfig | None = None) -> ScenarioReport:
    """Run the mode ``config.mode`` names; see the module docstring."""
    config = config if config is not None else ChaosConfig()
    return execute(SCENARIOS[config.mode], config)


def _require(run: Run, *checks: tuple[bool, str]) -> None:
    """Each ``(broken, message)`` that is broken is a violation."""
    for broken, message in checks:
        if broken:
            run.violate(message)


def _wal_rate(config: ChaosConfig) -> float:
    """``fault_rate`` is calibrated for high-volume read paths; WAL
    records and ship batches are a few per second, so scale it up for a
    comparable number of fires per run."""
    return min(0.9, config.fault_rate * 7.0)


def _topology(run: Run) -> dict[str, Any]:
    """A frontier over supervised HTTP backends: ``max(2, shards)``
    groups × 2 replicas on 2 nodes."""
    return dict(
        breaker_threshold=2, breaker_reset=run.config.breaker_reset,
        backend_nodes=2, backend_groups=max(2, run.config.shards),
        backend_replicas=2, backend_mode="http",
        backend_respawn_delay=run.config.respawn_delay,
    )


def _topology_reading(run: Run) -> dict[str, int]:
    settings = run.server_config
    return {"nodes": settings.backend_nodes, "groups": settings.backend_groups,
            "replicas": settings.backend_replicas}


def _topology_line(t: dict[str, Any]) -> str:
    return (f"topology: {t.get('nodes', '?')} node(s), {t.get('groups', '?')} "
            f"group(s) x {t.get('replicas', '?')} replica(s), http")


def _counter(counters: dict[str, dict[str, float]], name: str) -> int:
    return int(sum(counters.get(name, {}).values()))


# -- service: fault points across one in-process service.


@dataclass
class ChaosReport(ScenarioReport):
    """What one ``service`` run observed."""

    reduction_checks: int = 0
    fault_fires: dict[str, int] = field(default_factory=dict)
    vm_kernel_faults: int = 0
    reloads: dict[str, int] = field(default_factory=dict)
    breaker_trips: int = 0
    breaker_final_state: str = ""
    rebuilds: int = 0
    rpc_errors: int = 0  #: ``backend.rpc`` faults injected into shard calls
    failovers: int = 0  #: shard calls retried on the sibling replica
    local_fallbacks: int = 0  #: queries a dead shard group sent local
    traces_kept: int = 0
    fault_marked_traces: int = 0
    fault_marked_spans: int = 0  #: fault-marked ``backend.rpc`` spans kept
    slo: dict[str, Any] = field(default_factory=dict)
    slowest_traces: list[dict[str, Any]] = field(default_factory=list)
    health_states_seen: list[str] = field(default_factory=list)
    final_health: str = ""
    loadgen: dict[str, Any] = field(default_factory=dict)

    def _lines(self) -> list[str]:
        slo = "; ".join(
            f"{name}: {snap['activations']} fast-burn alert(s), "
            f"{snap['bad_events']}/{snap['events']} bad"
            for name, snap in sorted(self.slo.items())
        )
        return [
            f"verified {self.verified_responses} responses "
            f"({self.reduction_checks} reduction-oracle checks), "
            f"{self.corrupted_responses} corrupted",
            f"faults fired: {counts_line(self.fault_fires)}",
            f"reloads: {counts_line(self.reloads)}",
            f"breaker: {self.breaker_trips} trip(s), final state "
            f"{self.breaker_final_state}; index rebuilds: {self.rebuilds}",
            f"vm: {self.vm_kernel_faults} kernel fault(s) injected into "
            "the compiled path",
            f"shards: {self.rpc_errors} call error(s) injected, "
            f"{self.failovers} failed over, {self.local_fallbacks} "
            f"quer{'y' if self.local_fallbacks == 1 else 'ies'} evaluated "
            "locally",
            f"traces: {self.traces_kept} kept, {self.fault_marked_traces} "
            f"fault-marked ({self.fault_marked_spans} fault span(s))",
            f"slo: {slo or 'disabled'}",
            f"health: {' -> '.join(self.health_states_seen)} "
            f"(final: {self.final_health})",
        ]


#: The corpus breaker trips after this many failed reloads; the
#: ``index.build`` outage fails exactly that many reloads' 3 attempts.
_SERVICE_BREAKER_THRESHOLD = 3


def _service_server(run: Run):
    """One service scattering through an in-process frontier:
    ``max(2, shards)`` groups × 2 replicas on 2 nodes."""
    return ServerConfig(
        workers=4, queue_depth=32, cache_enabled=True, default_deadline=5.0,
        corpora=(index_corpus(run),),
        backend_nodes=2, backend_groups=max(2, run.config.shards),
        backend_replicas=2, backend_mode="inprocess",
        retry_attempts=3, retry_base_delay=0.02, retry_max_delay=0.1,
        breaker_threshold=_SERVICE_BREAKER_THRESHOLD,
        breaker_reset=run.config.breaker_reset,
        health_window=2.0, degraded_threshold=0.02, unhealthy_threshold=0.6,
        health_min_samples=8,
        # Tracing on with a roomy tail ring: every fault-marked trace
        # must survive the run for the fault-span invariant.
        tracing=True, trace_sample_rate=0.25, trace_tail_capacity=4096,
        # Tight SLO windows so a few seconds of injected errors can trip
        # the fast-burn alert within the fault phase.
        slo_fast_window=1.0, slo_slow_window=2.0, slo_burn_threshold=1.5,
        slo_min_samples=4,
    )


def _service_faults(config: ChaosConfig) -> tuple[FaultSpec, ...]:
    rate, latency = config.fault_rate, 0.002
    return (
        # Trips the breaker, then clears, so the half-open probe later
        # succeeds even inside the fault phase.
        FaultSpec("index.build", "error", probability=1.0,
                  max_fires=3 * _SERVICE_BREAKER_THRESHOLD),
        FaultSpec("storage.read", "error", probability=rate),
        FaultSpec("storage.read", "corrupt", probability=rate),
        FaultSpec("evaluator.step", "error", probability=rate / 12.5),
        FaultSpec("evaluator.step", "latency", probability=0.02,
                  latency=latency),
        FaultSpec("vm.kernel", "error", probability=0.004),
        FaultSpec("vm.kernel", "latency", probability=0.01, latency=latency),
        FaultSpec("backend.rpc", "error", probability=0.05),
    )


def _start_churn(run: Run) -> None:
    """Reload the corpus every ``reload_period`` until the phases end."""
    counts = run.report.reloads = {"ok": 0, "unavailable": 0, "failed": 0}
    stop = threading.Event()

    def churn() -> None:
        while not stop.wait(run.config.reload_period):
            try:
                run.service.reload_corpus("chaos")
                counts["ok"] += 1
            except ReproError as exc:
                unavailable = getattr(exc, "code", "") == "corpus_unavailable"
                counts["unavailable" if unavailable else "failed"] += 1

    def halt() -> None:
        stop.set()
        thread.join(timeout=5.0)

    thread = threading.Thread(target=churn, name="chaos-churn", daemon=True)
    thread.start()
    run.cleanups.append(halt)


def _smash_index(run: Run) -> None:
    """Corrupt the on-disk index so quarantine + rebuild must run."""
    if not run.config.corrupt_disk:
        return
    index_path = run.workdir / "play.index"
    try:
        raw = bytearray(index_path.read_bytes())
        for i in range(0, len(raw), 97):
            raw[i] ^= 0xFF
        index_path.write_bytes(bytes(raw))
    except OSError:
        pass


def _await_breaker(run: Run) -> None:
    """Give the breaker time for its half-open probe (via the churn)."""
    deadline = monotonic() + max(2.0, 2 * run.config.breaker_reset)
    while run.handle.breaker.state != "closed" and monotonic() < deadline:
        sleep(0.05)


def _service_finish(run: Run) -> None:
    report, service, registry = run.report, run.service, run.registry
    report.loadgen = {name: run.results[name].summary()
                      for name in ("fault", "recovery")}
    report.reduction_checks = run.oracle.reduction_checks
    report.fault_fires = dict(registry.snapshot()["fires"])
    report.breaker_trips = run.handle.breaker.trips
    report.breaker_final_state = run.handle.breaker.state
    counters = run.counters()
    report.rebuilds = _counter(counters, INDEX_REBUILDS_TOTAL)
    report.rpc_errors = registry.fires(point="backend.rpc", mode="error")
    report.vm_kernel_faults = registry.fires(point="vm.kernel")
    report.failovers = _counter(counters, BACKEND_FAILOVERS_TOTAL)
    report.local_fallbacks = int(
        counters.get(FRONTIER_FALLBACK_TOTAL, {}).get("reason=unavailable", 0)
    )
    report.health_states_seen = service.health.states_seen()
    report.final_health = service.health.state
    report.slo = {name: monitor.snapshot()
                  for name, monitor in service.slo.monitors.items()}
    if service.traces is not None:
        kept = service.traces.all()
        report.traces_kept = len(kept)
        for trace in kept:
            marked = sum(span.name == "backend.rpc"
                         and bool(span.attributes.get("fault"))
                         for span in trace.root.walk())
            report.fault_marked_spans += marked
            report.fault_marked_traces += bool(marked)
        report.slowest_traces = [t.to_summary()
                                 for t in service.traces.slowest(5)]

    fault_counts, tail_counts = (report.responses.get(p, {})
                                 for p in ("fault", "recovery"))
    server_errors, tail_errors = (c.get("500", 0) + c.get("504", 0)
                                  for c in (fault_counts, tail_counts))
    # Only evaluator and kernel errors can surface as 5xx query
    # responses; storage/index faults fail reloads, not queries.
    injected = sum(registry.fires(point=point, mode="error")
                   for point in ("evaluator.step", "vm.kernel"))
    sheds = fault_counts.get("503", 0)
    burn_alerts = report.slo.get("availability", {}).get("activations", 0)
    _require(
        run,
        (server_errors > injected + sheds + 2,
         f"fault-phase server errors ({server_errors}) exceed the injected "
         f"fault budget ({injected} fires + {sheds} shed + 2)"),
        (report.breaker_trips < 1,
         "the corpus circuit breaker never tripped despite the "
         "index.build outage"),
        (report.breaker_final_state != "closed",
         f"the circuit breaker did not recover (final state "
         f"{report.breaker_final_state!r})"),
        (run.config.corrupt_disk and report.rebuilds < 1,
         "the corrupted index file was never rebuilt from source"),
        (report.vm_kernel_faults < 1,
         "no vm.kernel fault ever fired — the compiled execution path "
         "was not exercised under chaos"),
        (report.rpc_errors and not (report.failovers or report.local_fallbacks),
         f"backend.rpc faults fired ({report.rpc_errors}) but no shard "
         "call failed over and no query fell back to local evaluation"),
        # Every injected backend.rpc fault leaves exactly one fault-marked
        # backend.rpc span, and any trace containing one is tail-kept
        # unconditionally — so the kept traces must account for every fire.
        (report.rpc_errors and report.fault_marked_spans < report.rpc_errors,
         f"only {report.fault_marked_spans} fault-marked backend.rpc "
         f"span(s) were kept for {report.rpc_errors} injected "
         "backend.rpc fault(s) — the tracer lost fault attribution"),
        # With enough sustained 5xx the availability fast-burn alert must
        # have fired at least once; a small error count may legitimately
        # never align across both burn windows, so gate on volume.
        (server_errors >= 12 and burn_alerts < 1,
         f"{server_errors} fault-phase server errors never tripped "
         "the availability fast-burn alert"),
        ("degraded" not in report.health_states_seen,
         "the service never reported itself degraded during the faults"),
        (report.final_health != "healthy",
         f"the service did not return to healthy (final state "
         f"{report.final_health!r})"),
        (tail_errors > 0,
         f"{tail_errors} server error(s) in the recovery tail — faults "
         "were cleared, so none are acceptable"),
    )


SERVICE = Scenario(
    report=ChaosReport,
    server=_service_server,
    faults=_service_faults,
    phases=(
        Phase("warmup", lambda c: c.warmup_seconds, before=_start_churn),
        Phase("fault", lambda c: c.fault_seconds, faults=True,
              at=(lambda c: c.fault_seconds / 2, _smash_index)),
        Phase("recovery-early", lambda c: c.recovery_seconds / 2),
        Phase("recovery", lambda c: c.recovery_seconds / 2,
              after=_await_breaker),
    ),
    finish=_service_finish,
)


# -- backend-kill: SIGKILL a shard backend subprocess under load.


@dataclass
class BackendKillReport(ScenarioReport):
    """What one ``backend-kill`` run observed."""

    title = "backend-kill chaos"

    topology: dict[str, Any] = field(default_factory=dict)
    degraded: dict[str, int] = field(default_factory=dict)  #: per phase
    fallbacks: dict[str, int] = field(default_factory=dict)  #: per reason
    killed_node: str = ""
    kill_availability: float = field(default=0.0, metadata={"round": 4})
    respawns: int = 0
    failovers: int = 0
    hedges: int = 0
    final_breakers: dict[str, str] = field(default_factory=dict)
    equivalence_checks: int = 0
    loadgen: dict[str, Any] = field(default_factory=dict)

    def _lines(self) -> list[str]:
        return [
            _topology_line(self.topology),
            f"verified {self.verified_responses} responses against the "
            f"single-process oracle, {self.corrupted_responses} corrupted",
            f"degraded responses: {counts_line(self.degraded)}; "
            f"fallbacks: {counts_line(self.fallbacks)}",
            f"killed {self.killed_node} with SIGKILL; availability during "
            f"the kill window {self.kill_availability:.1%}; "
            f"{self.respawns} respawn(s); {self.failovers} failover(s); "
            f"{self.hedges} hedge(s)",
            f"final breakers: {counts_line(self.final_breakers)}",
            f"final equivalence sweep: {self.equivalence_checks} quer"
            f"{'y' if self.equivalence_checks == 1 else 'ies'} checked",
        ]


def _backend_server(run: Run):
    return ServerConfig(
        workers=4, queue_depth=32, default_deadline=5.0,
        cache_enabled=False,  # every 200 is a fresh evaluation
        corpora=(index_corpus(run),), **_topology(run),
    )


def _backend_finish(run: Run) -> None:
    report = run.report
    report.topology = _topology_reading(run)
    report.degraded, report.fallbacks = run.degraded, run.fallbacks
    report.loadgen = {name: run.results[name].summary()
                      for name in ("kill", "recovery")}
    report.final_breakers = run.breakers()
    counters = run.counters()
    report.failovers = _counter(counters, BACKEND_FAILOVERS_TOTAL)
    report.hedges = _counter(counters, BACKEND_HEDGES_TOTAL)

    run.require_200("warmup", "during warmup with every backend healthy")
    run.check_kill("backend")
    run.require_200(
        "recovery",
        "in recovery — the victim was respawned, so none are acceptable",
    )
    warmup, recovery = (report.degraded.get(p, 0) for p in ("warmup", "recovery"))
    _require(
        run,
        (report.corrupted_responses > 0,
         f"{report.corrupted_responses} corrupted response(s) — a killed "
         "backend must never cost correctness"),
        (warmup > 0,
         f"{warmup} degraded response(s) during warmup with every backend "
         "healthy"),
        (recovery > 0,
         f"{recovery} degraded response(s) in recovery — the topology must "
         "be whole again"),
    )

    # Final sweep: every mix query once more, directly, each answer
    # checked against the oracle and required off the distributed path.
    for name, text in run.scenario.queries.items():
        try:
            status, body = run.post_query(text)
        except OSError as exc:
            run.violate(
                f"final equivalence query {name!r} failed at the "
                f"transport: {type(exc).__name__}"
            )
            continue
        report.equivalence_checks += 1
        if status != 200 or body is None:
            run.violate(f"final equivalence query {name!r} answered {status}")
            continue
        got = {(int(l), int(r)) for l, r in body.get("regions", ())}
        _require(
            run,
            (got != run.oracle.baseline[text],
             f"final equivalence query {name!r} disagrees with the "
             "single-process oracle"),
            ((body.get("backend") or {}).get("degraded"),
             f"final equivalence query {name!r} was still degraded after "
             "full recovery"),
        )


#: SIGKILL the victim 0.3 s into the kill phase.
_KILL_AFTER = (lambda c: 0.3, Run.kill_victim)

BACKEND_KILL = Scenario(
    report=BackendKillReport,
    server=_backend_server,
    phases=(
        Phase("warmup", lambda c: c.warmup_seconds),
        Phase("kill", lambda c: c.fault_seconds, at=_KILL_AFTER,
              after=lambda run: run.await_respawn(10.0)),
        Phase("recovery", lambda c: c.recovery_seconds),
    ),
    finish=_backend_finish,
)


# -- ingest: writes under WAL faults and a cold restart.


@dataclass
class IngestReport(ScenarioReport):
    """What one ``ingest`` run observed."""

    title = "ingest chaos"

    writes: dict[str, dict[str, int]] = field(default_factory=dict)
    writes_acked: int = 0
    writes_failed: int = 0
    generations_published: int = 0
    wal_fault_fires: int = 0
    replayed_batches: int = 0
    restart_bit_identical: bool = False
    final_bit_identical: bool = False
    compaction: dict[str, Any] = field(default_factory=dict)
    documents_final: int = 0

    def _lines(self) -> list[str]:
        return [
            f"verified {self.verified_responses} responses, "
            f"{self.corrupted_responses} corrupted",
            f"writes: {self.writes_acked} acked, {self.writes_failed} "
            f"failed ({self.wal_fault_fires} WAL fault fire(s)); "
            f"{self.generations_published} generation(s) published",
            f"restart: {self.replayed_batches} batch(es) replayed, "
            f"bit-identical: {self.restart_bit_identical}",
            f"compaction: merged {self.compaction.get('merged_segments', 0)} "
            f"segment(s), dropped "
            f"{self.compaction.get('dropped_tombstones', 0)} tombstone(s)",
            f"final state: {self.documents_final} ingested doc(s), "
            f"bit-identical to rebuilt-from-scratch: "
            f"{self.final_bit_identical}",
        ]


def _ingest_server(run: Run):
    return ServerConfig(
        workers=4, queue_depth=64, default_deadline=5.0,
        cache_enabled=True,  # exercise the generation-keyed cache
        **live_corpus(run),
    )


def _compact(run: Run) -> None:
    run.report.compaction = run.service.compact("chaos")


def _ingest_finish(run: Run) -> None:
    report = run.report
    report.writes, report.writes_failed = run.writes, run.failed
    report.writes_acked = report.generations_published = run.acked
    report.wal_fault_fires = run.registry.fires(point="storage.write")
    report.documents_final = run.oracle.live.document_count
    run.check_writes(("fault", "fault-replayed"), "storage.write")
    run.check_three_way()


INGEST = Scenario(
    report=IngestReport,
    server=_ingest_server,
    faults=lambda c: (
        FaultSpec("storage.write", "error", probability=_wal_rate(c)),
    ),
    oracle=mirror_oracle,
    queries={**PLAY_QUERIES, **CHAOS_EXTRA_QUERIES},
    use_cache=True,
    write_rate=8.0,
    phases=(
        Phase("warmup", lambda c: c.warmup_seconds),
        Phase("fault", lambda c: c.fault_seconds / 2, faults=True),
        # Torn down mid-fault WITHOUT a checkpoint: recovery is WAL replay.
        Phase("fault-replayed", lambda c: c.fault_seconds / 2, faults=True,
              before=Run.cold_restart),
        Phase("recovery", lambda c: c.recovery_seconds, after=_compact),
        Phase("post-compact", lambda c: min(1.0, c.recovery_seconds)),
    ),
    finish=_ingest_finish,
)


# -- replication: replicated writes under ship faults, restart and a kill.


@dataclass
class ReplicationReport(ScenarioReport):
    """What one ``replication`` run observed."""

    title = "replication chaos"

    topology: dict[str, Any] = field(default_factory=dict)
    degraded: dict[str, int] = field(default_factory=dict)  #: per phase
    fallbacks: dict[str, int] = field(default_factory=dict)  #: per reason
    #: replica refusals of a read's generation: ``behind`` it or ``past`` it
    refusals: dict[str, int] = field(default_factory=dict)
    writes: dict[str, dict[str, int]] = field(default_factory=dict)
    writes_acked: int = 0
    writes_failed: int = 0
    ship_fault_fires: int = 0
    ship_failures: int = 0
    batches_shipped: int = 0
    catchups: dict[str, int] = field(default_factory=dict)  #: per node
    divergences_repaired: int = 0
    replayed_batches: int = 0
    restart_bit_identical: bool = False
    killed_node: str = ""
    kill_availability: float = field(default=0.0, metadata={"round": 4})
    respawns: int = 0
    final_breakers: dict[str, str] = field(default_factory=dict)
    final_sweep: dict[str, str] = field(default_factory=dict)  #: node outcome
    final_lag: dict[str, int] = field(default_factory=dict)
    final_bit_identical: bool = False
    documents_final: int = 0

    def _lines(self) -> list[str]:
        return [
            _topology_line(self.topology) + ", replicated ingest",
            f"verified {self.verified_responses} responses against the "
            f"acked-writes oracle, {self.corrupted_responses} corrupted "
            "or stale",
            f"degraded responses: {counts_line(self.degraded)}; "
            f"fallbacks: {counts_line(self.fallbacks)}",
            f"replica refusals: {counts_line(self.refusals)}",
            f"writes: {self.writes_acked} acked, {self.writes_failed} "
            f"failed; {self.batches_shipped} batch-applies shipped, "
            f"{self.ship_failures} ship failure(s) "
            f"({self.ship_fault_fires} injected)",
            f"catch-ups: {counts_line(self.catchups)}; "
            f"divergences repaired: {self.divergences_repaired}",
            f"restart: {self.replayed_batches} batch(es) replayed, "
            f"bit-identical: {self.restart_bit_identical}",
            f"killed {self.killed_node} with SIGKILL; availability during "
            f"the kill window {self.kill_availability:.1%}; "
            f"{self.respawns} respawn(s)",
            f"final sweep: {counts_line(self.final_sweep)}",
            f"final state: {self.documents_final} ingested doc(s), "
            f"three-way bit-identical: {self.final_bit_identical}",
        ]


#: Seconds each catch-up wait may take before the run gives up on it.
_SETTLE_SECONDS = 12.0


def _replication_server(run: Run):
    return ServerConfig(
        workers=4, queue_depth=64, default_deadline=5.0,
        cache_enabled=False,  # every 200 is a fresh, verifiable evaluation
        **live_corpus(run), **_topology(run),
        replication_enabled=True, replication_interval=0.5,
        replication_lag_limit=4,
    )


def _replication_faults(config: ChaosConfig) -> tuple[FaultSpec, ...]:
    # A ship attempt fails or its wire copy is corrupted, evenly split.
    rate = _wal_rate(config) / 2
    return (FaultSpec("replication.ship", "error", probability=rate),
            FaultSpec("replication.ship", "corrupt", probability=rate))


def _require_current(run: Run, problem: str) -> dict[str, str]:
    """Sweep until every replica is current; ``problem`` if one is not."""
    outcomes = run.await_current(_SETTLE_SECONDS)
    if any(outcome != "current" for outcome in outcomes.values()):
        run.violate(f"{problem}: {counts_line(outcomes)}")
    return outcomes


def _restart_and_converge(run: Run) -> None:
    """Restart the frontier over its WAL; the sweep must snapshot-repair
    the blank respawned replicas back to current."""
    run.cold_restart()
    _require_current(run, "replicas never converged after the frontier restart")


def _respawn_and_catch_up(run: Run) -> None:
    """The victim comes back blank; the sweep must catch it up."""
    run.await_respawn(_SETTLE_SECONDS)
    _require_current(
        run, f"the respawned {run.report.killed_node} never caught back up"
    )


def _replication_finish(run: Run) -> None:
    report, service = run.report, run.service
    report.topology = _topology_reading(run)
    report.degraded, report.fallbacks = run.degraded, run.fallbacks
    report.writes = run.writes
    report.writes_acked, report.writes_failed = run.acked, run.failed
    report.ship_fault_fires = run.registry.fires(point="replication.ship")
    report.final_sweep = run.await_current(_SETTLE_SECONDS)
    report.final_breakers = run.breakers()
    report.final_lag = {node.id: service.replication.lag(node.id, "chaos")
                        for node in service.frontier.nodes}
    report.documents_final = run.oracle.live.document_count
    counters = run.counters()
    report.batches_shipped = _counter(
        counters, REPLICATION_BATCHES_SHIPPED_TOTAL
    )
    report.ship_failures = _counter(counters, REPLICATION_SHIP_FAILURES_TOTAL)
    report.divergences_repaired = _counter(
        counters, REPLICATION_DIVERGENCE_TOTAL
    )
    for labels, count in counters.get(REPLICATION_CATCHUPS_TOTAL, {}).items():
        node = dict(parse_label_text(labels)).get("node", "?")
        report.catchups[node] = report.catchups.get(node, 0) + int(count)
    report.refusals = {"behind": 0, "past": 0}
    for labels, count in counters.get(BACKEND_REQUESTS_TOTAL, {}).items():
        outcome = dict(parse_label_text(labels)).get("outcome")
        if outcome in report.refusals:
            report.refusals[outcome] += int(count)

    run.require_200("warmup", "during warmup with every replica healthy")
    run.check_kill("replica")
    lagging = {n: lag for n, lag in report.final_lag.items() if lag > 0}
    fault_write_errors = sum(
        n for status, n in report.writes.get("fault", {}).items()
        if status != "200"
    )
    _require(
        run,
        (bool(lagging),
         f"nodes still lag the frontier after recovery: "
         f"{counts_line(lagging)}"),
        (not report.final_sweep
         or any(o != "current" for o in report.final_sweep.values()),
         "the final anti-entropy sweep did not find every replica current: "
         + (counts_line(report.final_sweep) if report.final_sweep
            else "no outcomes")),
        (fault_write_errors > 0,
         f"{fault_write_errors} write(s) failed during ship faults "
         "— a ship failure must never fail the ingest"),
    )
    run.check_writes(("fault",), "replication.ship")
    run.check_three_way()


REPLICATION = Scenario(
    report=ReplicationReport,
    server=_replication_server,
    faults=_replication_faults,
    oracle=mirror_oracle,
    queries={**PLAY_QUERIES, **CHAOS_EXTRA_QUERIES},
    write_rate=6.0,
    phases=(
        Phase("warmup", lambda c: c.warmup_seconds),
        Phase("fault", lambda c: c.fault_seconds, faults=True),
        Phase("kill", lambda c: 3.0, before=_restart_and_converge,
              at=_KILL_AFTER, after=_respawn_and_catch_up),
        Phase("recovery", lambda c: c.recovery_seconds),
    ),
    finish=_replication_finish,
)


SCENARIOS: dict[str, Scenario] = {
    "service": SERVICE,
    "backend-kill": BACKEND_KILL,
    "ingest": INGEST,
    "replication": REPLICATION,
}
