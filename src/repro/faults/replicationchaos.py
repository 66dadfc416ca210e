"""The replication chaos harness behind ``repro chaos --mode replication``.

The replicated-ingestion torture test: an ingest-enabled frontier
:class:`~repro.server.QueryService` ships every committed WAL batch to
real ``repro serve`` backend subprocesses (a ``groups x replicas`` HTTP
topology), while the load generator drives concurrent reads *and*
writes.  Six phases:

1. **warmup** — clean reads + writes.  Every ``200`` query response is
   verified against a local mirror of the acknowledged batches, keyed by
   the generation the response reports; a response may be *fresher* than
   its stamped generation (a replica that already applied the next
   batch still satisfies the floor) but never staler and never wrong.
2. **ship faults** — ``replication.ship`` error and corruption faults
   are armed, so some replicas miss or reject their copy of a batch.
   A ship failure must never fail the ingest (the write is durable in
   the frontier's WAL) and must never corrupt an answer; the
   anti-entropy sweep repairs the holes.
3. **restart** — the whole frontier is torn down without a checkpoint
   and rebuilt over the same ingest directory.  WAL replay must
   reconstruct the corpus bit-identically, and the (freshly spawned)
   replicas — blank, at a generation the new frontier has never issued —
   must be walked back to current by the sweep's snapshot catch-up.
4. **kill** — one backend replica is SIGKILLed mid-write-load.
   Availability over the kill window must stay above the configured
   floor: reads fail over to the surviving replica or the frontier's
   local degraded path (which serves exactly the stamped generation, so
   the floor holds either way).
5. **respawn wait** — the supervisor restarts the victim; probe traffic
   re-closes its breaker and the sweep catches the blank respawn up.
6. **recovery** — clean load once more, then the final reckoning: a
   sweep must find every (node, corpus) ``current``, and the serving
   corpus, the acked-writes mirror, and a rebuilt-from-scratch parse of
   the combined text must be bit-identical three ways.

Deterministic for a fixed seed (modulo thread scheduling, which every
invariant is written to tolerate).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, sleep
from typing import Any

from repro.faults.ingestchaos import _Mirror, identity
from repro.faults.registry import FaultRegistry, FaultSpec, activate, deactivate

__all__ = [
    "ReplicationChaosConfig",
    "ReplicationChaosReport",
    "run_replication_chaos",
]


@dataclass(frozen=True)
class ReplicationChaosConfig:
    """Knobs for one replication-chaos run (defaults match CI)."""

    seed: int = 0
    scale: int = 2  #: size of the generated base play
    groups: int = 2  #: shard groups the frontier scatters to
    replicas: int = 2  #: replicas per group (must survive one kill)
    nodes: int = 2  #: backend subprocesses
    qps: float = 30.0  #: query rate
    write_rate: float = 6.0  #: ingest batches per second
    concurrency: int = 4
    warmup_seconds: float = 1.0
    fault_seconds: float = 4.0  #: ship-fault phase, before the restart
    kill_seconds: float = 3.0
    recovery_seconds: float = 2.0
    kill_after: float = 0.3  #: seconds into the kill phase to SIGKILL
    #: per-(node, batch) probability that a ship attempt fails or the
    #: wire copy is corrupted (split evenly between the two modes)
    ship_fault_rate: float = 0.35
    replication_interval: float = 0.5  #: background sweep period
    lag_limit: int = 4
    breaker_threshold: int = 2
    breaker_reset: float = 1.0
    respawn_delay: float = 0.3
    min_kill_availability: float = 0.9
    settle_seconds: float = 12.0  #: per catch-up wait before giving up
    workdir: str | None = None  #: where WALs + checkpoints live (tempdir)


@dataclass
class ReplicationChaosReport:
    """What one replication-chaos run observed; ``ok`` iff nothing broke."""

    seed: int = 0
    duration_seconds: float = 0.0
    topology: dict[str, Any] = field(default_factory=dict)
    responses: dict[str, dict[str, int]] = field(default_factory=dict)
    verified_responses: int = 0
    corrupted_responses: int = 0
    degraded: dict[str, int] = field(default_factory=dict)  #: per phase
    writes: dict[str, dict[str, int]] = field(default_factory=dict)
    writes_acked: int = 0
    writes_failed: int = 0
    ship_fault_fires: int = 0
    ship_failures: int = 0
    batches_shipped: int = 0
    catchups: dict[str, int] = field(default_factory=dict)  #: per kind
    divergences_repaired: int = 0
    replayed_batches: int = 0
    restart_bit_identical: bool = False
    killed_node: str = ""
    kill_availability: float = 0.0
    respawns: int = 0
    final_breakers: dict[str, str] = field(default_factory=dict)
    final_sweep: dict[str, str] = field(default_factory=dict)  #: node outcome
    final_lag: dict[str, int] = field(default_factory=dict)
    final_bit_identical: bool = False
    documents_final: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "duration_seconds": round(self.duration_seconds, 2),
            "topology": self.topology,
            "responses": self.responses,
            "verified_responses": self.verified_responses,
            "corrupted_responses": self.corrupted_responses,
            "degraded": self.degraded,
            "writes": self.writes,
            "writes_acked": self.writes_acked,
            "writes_failed": self.writes_failed,
            "ship_fault_fires": self.ship_fault_fires,
            "ship_failures": self.ship_failures,
            "batches_shipped": self.batches_shipped,
            "catchups": self.catchups,
            "divergences_repaired": self.divergences_repaired,
            "replayed_batches": self.replayed_batches,
            "restart_bit_identical": self.restart_bit_identical,
            "killed_node": self.killed_node,
            "kill_availability": round(self.kill_availability, 4),
            "respawns": self.respawns,
            "final_breakers": self.final_breakers,
            "final_sweep": self.final_sweep,
            "final_lag": self.final_lag,
            "final_bit_identical": self.final_bit_identical,
            "documents_final": self.documents_final,
            "violations": self.violations,
        }

    def format_report(self) -> str:
        lines = [
            f"replication chaos run (seed {self.seed}) "
            f"{'PASSED' if self.ok else 'FAILED'} "
            f"in {self.duration_seconds:.1f}s",
            f"topology: {self.topology.get('nodes', '?')} node(s), "
            f"{self.topology.get('groups', '?')} group(s) x "
            f"{self.topology.get('replicas', '?')} replica(s), http, "
            "replicated ingest",
            "responses by phase: "
            + "; ".join(
                f"{phase}: "
                + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
                for phase, counts in self.responses.items()
            ),
            f"verified {self.verified_responses} responses against the "
            f"acked-writes oracle, {self.corrupted_responses} corrupted "
            "or stale",
            f"writes: {self.writes_acked} acked, {self.writes_failed} "
            f"failed; {self.batches_shipped} batch-applies shipped, "
            f"{self.ship_failures} ship failure(s) "
            f"({self.ship_fault_fires} injected)",
            "catch-ups: "
            + (
                ", ".join(
                    f"{kind}: {count}"
                    for kind, count in sorted(self.catchups.items())
                )
                or "none"
            )
            + f"; divergences repaired: {self.divergences_repaired}",
            f"restart: {self.replayed_batches} batch(es) replayed, "
            f"bit-identical: {self.restart_bit_identical}",
            f"killed {self.killed_node} with SIGKILL; availability during "
            f"the kill window {self.kill_availability:.1%}; "
            f"{self.respawns} respawn(s)",
            "final sweep: "
            + ", ".join(
                f"{node}: {outcome}"
                for node, outcome in sorted(self.final_sweep.items())
            ),
            f"final state: {self.documents_final} ingested doc(s), "
            f"three-way bit-identical: {self.final_bit_identical}",
        ]
        if self.violations:
            lines.append("violations:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("violations: none")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The floor-aware oracle.
# ----------------------------------------------------------------------


class _FloorMirror(_Mirror):
    """The ingest-chaos mirror, relaxed for generation *floors*.

    Over a replicated topology the generation a response reports is a
    floor, not an exact version: a replica that has already applied a
    later batch legitimately answers with the fresher regions.  So a
    ``200`` is good iff it matches the oracle at its stamped generation
    **or any later one in the same epoch** — and is flagged as a
    floor violation when it matches only an *earlier* generation (a
    stale read the floor should have rejected), or as corruption when it
    matches nothing at all.
    """

    def _check(self, epoch, generation, query, got, expected) -> None:
        self.verified += 1
        if got == expected:
            return
        known = sorted(g for (e, g) in self._instances if e == epoch)
        for later in (g for g in known if g > generation):
            fresher = self._expected_regions(epoch, later, query)
            if fresher is not None and got == fresher:
                return  # ahead of the stamped floor — monotone, fine
        for earlier in reversed([g for g in known if g < generation]):
            staler = self._expected_regions(epoch, earlier, query)
            if staler is not None and got == staler:
                self.problems.append(
                    f"response for {query!r} matched generation {earlier} "
                    f"but was stamped {generation} (epoch {epoch}) — a "
                    "stale read leaked through the generation floor"
                )
                return
        self.problems.append(
            f"response for {query!r} at generation {generation} "
            f"(epoch {epoch}) matches no acked generation at all — "
            "corrupted regions"
        )


# ----------------------------------------------------------------------
# The run.
# ----------------------------------------------------------------------


def _service_config(config: ReplicationChaosConfig, ingest_dir: Path):
    from repro.server.config import CorpusSpec, ServerConfig

    # A synthetic corpus: generation is deterministic by seed, so the
    # backend subprocesses (handed the same spec via --corpus-json)
    # build instances bit-identical to the frontier's — the base the
    # replicas' LiveCorpus overlays start from.
    return ServerConfig(
        workers=4,
        queue_depth=64,
        cache_enabled=False,  # every 200 is a fresh, verifiable evaluation
        default_deadline=5.0,
        corpora=(
            CorpusSpec(
                name="chaos",
                kind="synthetic",
                path="play",
                seed=config.seed,
                scale=max(1, config.scale),
            ),
        ),
        shards=1,  # ingest rebuilds engines per commit; keep them cheap
        breaker_threshold=config.breaker_threshold,
        breaker_reset=config.breaker_reset,
        backend_nodes=max(config.nodes, config.replicas),
        backend_groups=config.groups,
        backend_replicas=config.replicas,
        backend_mode="http",
        backend_respawn_delay=config.respawn_delay,
        ingest_enabled=True,
        ingest_dir=str(ingest_dir),
        ingest_fsync=True,
        compaction_enabled=False,
        replication_enabled=True,
        replication_interval=config.replication_interval,
        replication_lag_limit=config.lag_limit,
    )


def _await_current(service, deadline_seconds: float) -> dict[str, str]:
    """Sweep until every (node, corpus) audit answers ``current`` or the
    deadline passes; returns the last sweep's per-node outcomes."""
    deadline = monotonic() + deadline_seconds
    outcomes: dict[str, str] = {}
    while True:
        sweep = service.replication.sweep()
        outcomes = dict(sweep["corpora"].get("chaos", {}))
        if outcomes and all(o == "current" for o in outcomes.values()):
            return outcomes
        if monotonic() >= deadline:
            return outcomes
        sleep(0.2)


def run_replication_chaos(
    config: ReplicationChaosConfig | None = None,
) -> ReplicationChaosReport:
    """Run the six-phase replication scenario; see the module docstring."""
    import tempfile

    from repro.server.http import create_server
    from repro.server.loadgen import run_load
    from repro.server.service import QueryService
    from repro.workloads.queries import PLAY_QUERIES

    config = config if config is not None else ReplicationChaosConfig()
    report = ReplicationChaosReport(seed=config.seed)
    report.topology = {
        "nodes": max(config.nodes, config.replicas),
        "groups": config.groups,
        "replicas": config.replicas,
    }
    started = monotonic()
    owned_tmp = None
    if config.workdir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-repl-chaos-")
        workdir = Path(owned_tmp.name)
    else:
        workdir = Path(config.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
    server_config = _service_config(config, workdir)
    service = QueryService(server_config)
    server = create_server(service, port=0)
    server.serve_in_background()
    try:
        handle = service._handle("chaos")
        base_text = handle.engine.text
        assert base_text is not None  # synthetic corpora carry their text
        mirror = _FloorMirror(handle.engine.instance, base_text)
        mirror.register(handle.generation)

        lock = threading.Lock()
        phase = {"name": "warmup"}

        def on_response(status: int, payload: bytes) -> None:
            name = phase["name"]
            with lock:
                counts = report.responses.setdefault(name, {})
                counts[str(status)] = counts.get(str(status), 0) + 1
            if status != 200:
                return
            try:
                body = json.loads(payload)
                generation = int(body["generation"])
                query = body["query"]
                regions = body["regions"]
            except (ValueError, KeyError, UnicodeDecodeError):
                with lock:
                    report.corrupted_responses += 1
                    report.violations.append(
                        "a 200 response failed to parse as a query result"
                    )
                return
            if (body.get("backend") or {}).get("degraded"):
                with lock:
                    report.degraded[name] = report.degraded.get(name, 0) + 1
            mirror.verify(generation, query, regions)

        def on_ingest_response(ops, status: int, payload: bytes) -> None:
            with lock:
                counts = report.writes.setdefault(phase["name"], {})
                counts[str(status)] = counts.get(str(status), 0) + 1
            if status != 200:
                report.writes_failed += 1
                return
            try:
                generation = int(json.loads(payload)["generation"])
            except (ValueError, KeyError, UnicodeDecodeError):
                with lock:
                    report.violations.append("a 200 ingest ack failed to parse")
                return
            # Single writer: acks arrive in server apply order.
            mirror.commit(ops, generation)
            report.writes_acked += 1

        def load(phase_name: str, seconds: float, seed: int, port: int):
            phase["name"] = phase_name
            return run_load(
                "127.0.0.1",
                port,
                PLAY_QUERIES,
                corpus="chaos",
                qps=config.qps,
                duration=seconds,
                concurrency=config.concurrency,
                use_cache=False,
                seed=seed,
                on_response=on_response,
                ingest_rate=config.write_rate,
                on_ingest_response=on_ingest_response,
            )

        # Phase 1: warmup — clean reads + replicated writes.
        load("warmup", config.warmup_seconds, config.seed + 1, server.bound_port)

        # Phase 2: ship faults — some replicas miss or corrupt their
        # copy; ingest must keep acking and the sweep must repair.
        registry = FaultRegistry(seed=config.seed)
        registry.arm(
            FaultSpec(
                "replication.ship",
                "error",
                probability=config.ship_fault_rate / 2,
            )
        )
        registry.arm(
            FaultSpec(
                "replication.ship",
                "corrupt",
                probability=config.ship_fault_rate / 2,
            )
        )
        activate(registry)
        load("fault", config.fault_seconds, config.seed + 2, server.bound_port)
        deactivate()
        report.ship_fault_fires = registry.fires(point="replication.ship")

        # Phase 3: tear the frontier down WITHOUT a checkpoint and
        # rebuild over the same ingest directory.  WAL replay restores
        # the corpus; the freshly spawned (blank) replicas must be
        # snapshot-repaired back to current by the sweep.
        acked_before_restart = report.writes_acked
        server.stop()
        service = QueryService(server_config)
        server = create_server(service, port=0)
        server.serve_in_background()
        handle = service._handle("chaos")
        report.replayed_batches = service.ingest_info()["corpora"]["chaos"][
            "replayed_batches"
        ]
        mirror.rebase_epoch(handle.generation)
        report.restart_bit_identical = identity(
            handle.engine.instance
        ) == identity(mirror.live.instance)
        if not report.restart_bit_identical:
            report.violations.append(
                "the recovered corpus is not bit-identical to the mirror "
                "of acknowledged writes — WAL replay lost or invented a "
                "mutation"
            )
        if acked_before_restart > 0 and report.replayed_batches < 1:
            report.violations.append(
                f"{acked_before_restart} batch(es) were acked before the "
                "restart but none were replayed from the WAL"
            )
        restart_sweep = _await_current(service, config.settle_seconds)
        if any(outcome != "current" for outcome in restart_sweep.values()):
            report.violations.append(
                "replicas never converged after the frontier restart: "
                + ", ".join(
                    f"{n}: {o}" for n, o in sorted(restart_sweep.items())
                )
            )

        # Phase 4: SIGKILL one replica of the first shard group a beat
        # into the phase, while reads and writes keep arriving.
        victim = service.frontier.replicas_for("chaos", 0)[0].id
        report.killed_node = victim
        killer = threading.Timer(
            config.kill_after, service.supervisor.kill, args=(victim,)
        )
        killer.start()
        load("kill", config.kill_seconds, config.seed + 3, server.bound_port)
        killer.join(timeout=1.0)

        # Phase 5: the supervisor must bring the victim back; probe
        # traffic re-closes breakers and the sweep catches the blank
        # respawn up (a respawned node remembers nothing).
        respawn_deadline = monotonic() + max(
            config.settle_seconds,
            4 * (config.respawn_delay + config.breaker_reset),
        )
        while (
            service.supervisor.respawns(victim) < 1
            and monotonic() < respawn_deadline
        ):
            sleep(0.1)
        report.respawns = service.supervisor.respawns(victim)
        probe = next(iter(PLAY_QUERIES.values()))
        while monotonic() < respawn_deadline:
            states = {
                node.id: node.breaker.state for node in service.frontier.nodes
            }
            if all(state == "closed" for state in states.values()):
                break
            # A closed breaker needs a successful half-open probe, and
            # probes only happen under traffic.
            phase["name"] = "probe"
            try:
                _post_query("127.0.0.1", server.bound_port, probe)
            except OSError:
                pass
            sleep(0.1)
        respawn_sweep = _await_current(service, config.settle_seconds)
        if any(outcome != "current" for outcome in respawn_sweep.values()):
            report.violations.append(
                f"the respawned {victim} never caught back up: "
                + ", ".join(
                    f"{n}: {o}" for n, o in sorted(respawn_sweep.items())
                )
            )

        # Phase 6: recovery — clean load, then the final reckoning.
        load(
            "recovery",
            config.recovery_seconds,
            config.seed + 4,
            server.bound_port,
        )
        report.final_sweep = _await_current(service, config.settle_seconds)
        report.final_breakers = {
            node.id: node.breaker.state for node in service.frontier.nodes
        }
        report.final_lag = {
            node.id: service.replication.lag(node.id, "chaos")
            for node in service.frontier.nodes
        }

        unmatched = mirror.settle_pending()
        if unmatched:
            report.violations.append(
                f"{unmatched} response(s) reported a generation the "
                "acked-writes oracle never saw"
            )
        report.verified_responses = mirror.verified
        report.corrupted_responses += len(mirror.problems)
        report.violations.extend(mirror.problems)
        report.documents_final = mirror.live.document_count

        counters = service.metrics_snapshot()["metrics"]["counters"]
        report.batches_shipped = int(
            sum(counters.get("replication_batches_shipped_total", {}).values())
        )
        report.ship_failures = int(
            sum(counters.get("replication_ship_failures_total", {}).values())
        )
        report.divergences_repaired = int(
            sum(counters.get("replication_divergence_total", {}).values())
        )
        from repro.obs.metrics import parse_label_text

        for labels, count in counters.get(
            "replication_catchups_total", {}
        ).items():
            kind = dict(parse_label_text(labels)).get("kind", "?")
            report.catchups[kind] = report.catchups.get(kind, 0) + int(count)

        # ------------------------------------------------------------------
        # Invariants.
        # ------------------------------------------------------------------
        warmup_errors = sum(
            count
            for status, count in report.responses.get("warmup", {}).items()
            if status != "200"
        )
        if warmup_errors:
            report.violations.append(
                f"{warmup_errors} non-200 response(s) during warmup with "
                "every replica healthy"
            )
        kill_counts = report.responses.get("kill", {})
        kill_total = sum(kill_counts.values())
        kill_ok = kill_counts.get("200", 0)
        report.kill_availability = kill_ok / kill_total if kill_total else 0.0
        if kill_total == 0:
            report.violations.append("no responses arrived during the kill phase")
        elif report.kill_availability < config.min_kill_availability:
            report.violations.append(
                f"availability during the kill window was "
                f"{report.kill_availability:.1%} "
                f"(minimum {config.min_kill_availability:.0%}) — failover "
                "did not absorb the dead replica"
            )
        if report.respawns < 1:
            report.violations.append(
                f"the supervisor never respawned {report.killed_node}"
            )
        open_breakers = {
            node: state
            for node, state in report.final_breakers.items()
            if state != "closed"
        }
        if open_breakers:
            report.violations.append(
                "breakers did not re-close after the respawn: "
                + ", ".join(
                    f"{n}: {s}" for n, s in sorted(open_breakers.items())
                )
            )
        lagging = {n: l for n, l in report.final_lag.items() if l > 0}
        if lagging:
            report.violations.append(
                "nodes still lag the frontier after recovery: "
                + ", ".join(f"{n}: {l}" for n, l in sorted(lagging.items()))
            )
        if any(o != "current" for o in report.final_sweep.values()) or (
            not report.final_sweep
        ):
            report.violations.append(
                "the final anti-entropy sweep did not find every replica "
                "current: "
                + (
                    ", ".join(
                        f"{n}: {o}"
                        for n, o in sorted(report.final_sweep.items())
                    )
                    or "no outcomes"
                )
            )
        fault_writes = sum(report.writes.get("fault", {}).values())
        if fault_writes >= 8 and report.ship_fault_fires == 0:
            report.violations.append(
                f"{fault_writes} writes ran through the fault phase but "
                "the replication.ship fault never fired"
            )
        fault_write_errors = sum(
            count
            for status, count in report.writes.get("fault", {}).items()
            if status != "200"
        )
        if fault_write_errors:
            report.violations.append(
                f"{fault_write_errors} write(s) failed during ship faults "
                "— a ship failure must never fail the ingest"
            )
        if report.writes_acked < 1:
            report.violations.append("no write was ever acknowledged")

        # The final three-way oracle: serving == mirror == full re-parse.
        serving = identity(service._handle("chaos").engine.instance)
        mirrored = identity(mirror.live.instance)
        scratch_instance = mirror.live.oracle_instance()
        scratch = (
            identity(scratch_instance) if scratch_instance is not None else None
        )
        report.final_bit_identical = serving == mirrored == scratch
        if serving != mirrored:
            report.violations.append(
                "the serving corpus is not bit-identical to the mirror of "
                "acknowledged writes"
            )
        if mirrored != scratch:
            report.violations.append(
                "the mirror is not bit-identical to a rebuilt-from-scratch "
                "parse of the combined corpus text"
            )
    finally:
        deactivate()
        try:
            server.stop()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        if owned_tmp is not None:
            owned_tmp.cleanup()
    report.duration_seconds = monotonic() - started
    return report


def _post_query(host: str, port: int, query: str, timeout: float = 10.0):
    """One direct ``POST /query`` (cache off); ``(status, parsed|None)``."""
    import http.client

    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            "POST",
            "/query",
            body=json.dumps(
                {"query": query, "corpus": "chaos", "use_cache": False}
            ),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    try:
        return response.status, json.loads(payload)
    except (ValueError, UnicodeDecodeError):
        return response.status, None
