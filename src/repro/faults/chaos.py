"""The chaos harness behind ``repro chaos``.

Runs the real HTTP serving stack — :class:`~repro.server.QueryService`
behind :class:`~repro.server.http.QueryHTTPServer`, driven by the
open-loop load generator — through three phases:

1. **warmup** — no faults.  The harness computes its oracles here: the
   expected result of every query in the mix from the engine itself,
   and a *k-reduced-instance* oracle from the paper's reduction theorem
   (Thm 4.4 / Prop 4.5): for order-free queries, a region ``r`` is in
   ``e(I)`` iff ``h(r)`` is in ``e(I')`` for the reduced instance
   ``I'`` — an algebraic invariant any corrupted response is unlikely
   to satisfy.
2. **fault** — a seeded :class:`~repro.faults.FaultRegistry` is armed:
   evaluator errors and latency, worker kills, storage read
   errors/corruption, and an ``index.build`` outage budgeted to fail
   exactly enough reloads to trip the corpus circuit breaker.  A
   reload-churn thread hammers ``reload_corpus`` throughout, and
   (optionally) the index file on disk is deliberately corrupted to
   force the quarantine + rebuild-from-source path.
3. **recovery** — faults deactivated; the same load continues and the
   service must climb back: breaker closed, health ``healthy``, zero
   server errors in the tail of the phase.

Every ``200`` response from every phase is verified against both
oracles; :class:`ChaosReport.violations` lists everything that went
wrong.  The whole run is deterministic for a fixed seed (modulo
thread scheduling, which the invariants are written to tolerate).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, sleep
from typing import Any

from repro.algebra import ast as A
from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.errors import ReproError
from repro.faults.registry import FaultRegistry, FaultSpec, activate, deactivate

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos"]


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one chaos run (defaults match the CI smoke job)."""

    seed: int = 0
    scale: int = 2  #: size of each generated play
    documents: int = 3  #: plays concatenated into the corpus (forest roots)
    shards: int = 2  #: per-corpus shard count the service evaluates with
    qps: float = 60.0
    concurrency: int = 4
    warmup_seconds: float = 1.0
    fault_seconds: float = 4.0
    recovery_seconds: float = 3.0
    #: per-traversal probabilities for the armed fault points
    storage_fault_rate: float = 0.05
    evaluator_fault_rate: float = 0.004  #: per evaluator *node*
    vm_fault_rate: float = 0.004  #: per VM *kernel* execution
    vm_latency_rate: float = 0.01
    latency_fault_rate: float = 0.02
    latency_seconds: float = 0.002
    kill_rate: float = 0.01
    shard_fault_rate: float = 0.05  #: per shard call attempt (``backend.rpc``)
    reload_period: float = 0.4
    corrupt_disk: bool = True  #: deliberately corrupt the index file once
    breaker_reset: float = 1.0
    workdir: str | None = None  #: where the index corpus lives (tempdir)


@dataclass
class ChaosReport:
    """What one chaos run observed; ``ok`` iff no invariant broke."""

    seed: int = 0
    duration_seconds: float = 0.0
    responses: dict[str, dict[str, int]] = field(default_factory=dict)
    verified_responses: int = 0
    corrupted_responses: int = 0
    reduction_checks: int = 0
    fault_fires: dict[str, int] = field(default_factory=dict)
    vm_kernel_faults: int = 0
    reloads: dict[str, int] = field(default_factory=dict)
    breaker_trips: int = 0
    breaker_final_state: str = ""
    worker_deaths: int = 0
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
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "duration_seconds": round(self.duration_seconds, 2),
            "responses": self.responses,
            "verified_responses": self.verified_responses,
            "corrupted_responses": self.corrupted_responses,
            "reduction_checks": self.reduction_checks,
            "fault_fires": self.fault_fires,
            "vm_kernel_faults": self.vm_kernel_faults,
            "reloads": self.reloads,
            "breaker_trips": self.breaker_trips,
            "breaker_final_state": self.breaker_final_state,
            "worker_deaths": self.worker_deaths,
            "rebuilds": self.rebuilds,
            "rpc_errors": self.rpc_errors,
            "failovers": self.failovers,
            "local_fallbacks": self.local_fallbacks,
            "traces_kept": self.traces_kept,
            "fault_marked_traces": self.fault_marked_traces,
            "fault_marked_spans": self.fault_marked_spans,
            "slo": self.slo,
            "slowest_traces": self.slowest_traces,
            "health_states_seen": self.health_states_seen,
            "final_health": self.final_health,
            "loadgen": self.loadgen,
            "violations": self.violations,
        }

    def format_report(self) -> str:
        lines = [
            f"chaos run (seed {self.seed}) "
            f"{'PASSED' if self.ok else 'FAILED'} "
            f"in {self.duration_seconds:.1f}s",
            f"responses by phase: "
            + "; ".join(
                f"{phase}: "
                + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
                for phase, counts in self.responses.items()
            ),
            f"verified {self.verified_responses} responses "
            f"({self.reduction_checks} reduction-oracle checks), "
            f"{self.corrupted_responses} corrupted",
            f"faults fired: "
            + (
                ", ".join(
                    f"{k}: {v}" for k, v in sorted(self.fault_fires.items())
                )
                or "none"
            ),
            f"reloads: "
            + ", ".join(f"{k}: {v}" for k, v in sorted(self.reloads.items())),
            f"breaker: {self.breaker_trips} trip(s), final state "
            f"{self.breaker_final_state}; worker deaths: "
            f"{self.worker_deaths}; index rebuilds: {self.rebuilds}",
            f"vm: {self.vm_kernel_faults} kernel fault(s) injected into "
            "the compiled path",
            f"shards: {self.rpc_errors} call error(s) injected, "
            f"{self.failovers} failed over, {self.local_fallbacks} "
            f"quer{'y' if self.local_fallbacks == 1 else 'ies'} evaluated "
            "locally",
            f"traces: {self.traces_kept} kept, {self.fault_marked_traces} "
            f"fault-marked ({self.fault_marked_spans} fault span(s))",
            f"slo: "
            + (
                "; ".join(
                    f"{name}: {snap['activations']} fast-burn alert(s), "
                    f"{snap['bad_events']}/{snap['events']} bad"
                    for name, snap in sorted(self.slo.items())
                )
                or "disabled"
            ),
            f"health: {' -> '.join(self.health_states_seen)} "
            f"(final: {self.final_health})",
        ]
        if self.violations:
            lines.append("violations:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("violations: none")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Oracles.
# ----------------------------------------------------------------------


class _Oracles:
    """Baseline + reduction-theorem verification for query responses.

    Built during warmup from the fault-free engine.  ``verify`` checks a
    ``200`` payload (a) region-for-region against the fault-free
    baseline and (b), for order-free queries where a legal reduce step
    exists, against the k=0-reduced instance through the mapping ``h``
    (Theorem 4.4: order-free expressions cannot distinguish ``I`` from
    any reduced version).
    """

    def __init__(self, engine, queries: dict[str, str]):
        from repro.properties.reduction import (
            isomorphic_sibling_pairs,
            reduce_regions,
        )

        self.baseline: dict[str, set[tuple[int, int]]] = {}
        self.reduction: dict[str, set[tuple[int, int]]] = {}
        self._verdicts: dict[tuple[str, tuple], bool] = {}
        self.reduction_checks = 0
        instance = engine.instance
        self._instance_regions = [
            (r.left, r.right) for r in instance.all_regions()
        ]
        order_free: dict[str, A.Expr] = {}
        # Baseline truth comes from a plain single-shard evaluation in
        # the fault-free warm-up; the reduced-instance check below is the
        # independent semantic oracle.
        evaluator = Evaluator()
        for text in queries.values():
            expr = parse(text)
            self.baseline[text] = {
                (r.left, r.right) for r in evaluator.evaluate(expr, instance)
            }
            if A.order_op_count(expr) == 0:
                order_free[text] = expr
        self._h: dict[tuple[int, int], tuple[int, int]] = {}
        if order_free:
            patterns = sorted(
                set().union(*(A.pattern_names(e) for e in order_free.values()))
            )
            pairs = isomorphic_sibling_pairs(instance, patterns)
            if pairs:
                keep, remove = pairs[0]
                reduced, mapping = reduce_regions(
                    instance, keep, remove, patterns
                )
                self._h = {
                    (r.left, r.right): (mapping[r].left, mapping[r].right)
                    for r in instance.all_regions()
                }
                for text, expr in order_free.items():
                    result = evaluator.evaluate(expr, reduced)
                    self.reduction[text] = {
                        (r.left, r.right) for r in result
                    }

    def verify(self, query: str, regions: list[list[int]]) -> list[str]:
        """Problems with one 200 payload (empty list = verified)."""
        if query not in self.baseline:
            return []  # not a mix query (should not happen)
        got = {(int(l), int(r)) for l, r in regions}
        key = (query, tuple(sorted(got)))
        if key in self._verdicts:
            return [] if self._verdicts[key] else ["(repeat of earlier corruption)"]
        problems: list[str] = []
        expected = self.baseline[query]
        if got != expected:
            missing = len(expected - got)
            extra = len(got - expected)
            problems.append(
                f"response for {query!r} disagrees with the fault-free "
                f"baseline ({missing} missing, {extra} extra regions)"
            )
        reduced_result = self.reduction.get(query)
        if reduced_result is not None:
            self.reduction_checks += 1
            for pair in self._instance_regions:
                if (pair in got) != (self._h[pair] in reduced_result):
                    problems.append(
                        f"response for {query!r} violates the reduction "
                        f"theorem at region {pair}: r in e(I) must equal "
                        "h(r) in e(I')"
                    )
                    break
        self._verdicts[key] = not problems
        return problems


# ----------------------------------------------------------------------
# The run.
# ----------------------------------------------------------------------


def _build_corpus(config: ChaosConfig, workdir: Path):
    """Generate a multi-play document, index it to disk, return the spec.

    Several plays are concatenated so the instance is a multi-root
    forest the sharded executor can actually cut — a single play is one
    top-level tree and degenerates to a single segment.
    """
    import random

    from repro.engine.session import Engine
    from repro.engine.storage import save_instance
    from repro.server.config import CorpusSpec
    from repro.workloads.corpora import generate_play

    scale = max(1, config.scale)
    rng = random.Random(config.seed)
    text = "\n".join(
        generate_play(
            rng,
            acts=scale,
            scenes_per_act=scale,
            speeches_per_scene=2 * scale,
            lines_per_speech=3,
        )
        for _ in range(max(1, config.documents))
    )
    source_path = workdir / "play.tagged"
    source_path.write_text(text, encoding="utf-8")
    engine = Engine.from_tagged_text(text)
    index_path = workdir / "play.json"
    save_instance(engine.instance, index_path)
    return CorpusSpec(
        name="chaos",
        kind="index",
        path=str(index_path),
        source=str(source_path),
        source_format="tagged",
    )


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """Run the three-phase chaos scenario; see the module docstring."""
    import tempfile

    from repro.server.config import ServerConfig
    from repro.server.http import create_server
    from repro.server.service import QueryService
    from repro.workloads.queries import PLAY_QUERIES

    config = config if config is not None else ChaosConfig()
    report = ChaosReport(seed=config.seed)
    started = monotonic()
    owned_tmp = None
    if config.workdir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = Path(owned_tmp.name)
    else:
        workdir = Path(config.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
    try:
        spec = _build_corpus(config, workdir)
        server_config = ServerConfig(
            workers=4,
            queue_depth=32,
            cache_enabled=True,
            default_deadline=5.0,
            corpora=(spec,),
            retry_attempts=3,
            retry_base_delay=0.02,
            retry_max_delay=0.1,
            dispatch_retries=2,
            breaker_threshold=3,
            breaker_reset=config.breaker_reset,
            health_window=2.0,
            degraded_threshold=0.02,
            unhealthy_threshold=0.6,
            health_min_samples=8,
            shards=config.shards,
            # Tracing on with a roomy tail ring: every fault-marked
            # trace must survive the run for the fault-span invariant.
            tracing=True,
            trace_sample_rate=0.25,
            trace_tail_capacity=4096,
            # Tight SLO windows so a few seconds of injected errors can
            # trip the fast-burn alert within the fault phase.
            slo_fast_window=1.0,
            slo_slow_window=2.0,
            slo_burn_threshold=1.5,
            slo_min_samples=4,
        )
        service = QueryService(server_config)
        server = create_server(service, port=0)
        server.serve_in_background()
        try:
            _run_phases(config, report, service, server, PLAY_QUERIES, workdir)
        finally:
            server.stop()
    finally:
        deactivate()
        if owned_tmp is not None:
            owned_tmp.cleanup()
    report.duration_seconds = monotonic() - started
    return report


def _run_phases(config, report, service, server, queries, workdir) -> None:
    from repro.server.loadgen import run_load

    host, port = "127.0.0.1", server.bound_port
    handle = service._handle("chaos")
    oracles = _Oracles(handle.engine, queries)

    # Shared response collector; the phase label changes between runs.
    lock = threading.Lock()
    phase = {"name": "warmup"}

    def on_response(status: int, payload: bytes) -> None:
        with lock:
            counts = report.responses.setdefault(phase["name"], {})
            counts[str(status)] = counts.get(str(status), 0) + 1
        if status != 200:
            return
        try:
            body = json.loads(payload)
            query = body["query"]
            regions = body["regions"]
        except (ValueError, KeyError, UnicodeDecodeError):
            with lock:
                report.corrupted_responses += 1
                report.violations.append(
                    "a 200 response failed to parse as a query result"
                )
            return
        problems = oracles.verify(query, regions)
        with lock:
            report.verified_responses += 1
            if problems:
                report.corrupted_responses += 1
                report.violations.extend(problems)

    def load(phase_name: str, seconds: float, seed: int):
        phase["name"] = phase_name
        return run_load(
            host,
            port,
            queries,
            corpus="chaos",
            qps=config.qps,
            duration=seconds,
            concurrency=config.concurrency,
            use_cache=False,  # every 200 is a fresh evaluation
            seed=seed,
            on_response=on_response,
        )

    # Reload churn across all phases.
    stop_churn = threading.Event()
    reload_counts = {"ok": 0, "unavailable": 0, "failed": 0}

    def churn() -> None:
        while not stop_churn.wait(config.reload_period):
            try:
                service.reload_corpus("chaos")
                reload_counts["ok"] += 1
            except ReproError as exc:
                kind = (
                    "unavailable"
                    if getattr(exc, "code", "") == "corpus_unavailable"
                    else "failed"
                )
                reload_counts[kind] += 1

    churn_thread = threading.Thread(target=churn, name="chaos-churn", daemon=True)
    churn_thread.start()

    try:
        # Phase 1: warmup, no faults.
        load("warmup", config.warmup_seconds, config.seed + 1)

        # Phase 2: faults armed.
        registry = FaultRegistry(seed=config.seed)
        # An index.build outage budgeted to fail exactly breaker_threshold
        # reloads' worth of retries — trips the breaker, then clears, so
        # the half-open probe later succeeds even inside this phase.
        outage_fires = 3 * service.config.breaker_threshold
        registry.arm(
            FaultSpec("index.build", "error", probability=1.0, max_fires=outage_fires)
        )
        registry.arm(
            FaultSpec(
                "storage.read", "error", probability=config.storage_fault_rate
            )
        )
        registry.arm(
            FaultSpec(
                "storage.read", "corrupt", probability=config.storage_fault_rate
            )
        )
        registry.arm(
            FaultSpec(
                "evaluator.step",
                "error",
                probability=config.evaluator_fault_rate,
            )
        )
        registry.arm(
            FaultSpec(
                "evaluator.step",
                "latency",
                probability=config.latency_fault_rate,
                latency=config.latency_seconds,
            )
        )
        registry.arm(
            FaultSpec(
                "vm.kernel",
                "error",
                probability=config.vm_fault_rate,
            )
        )
        registry.arm(
            FaultSpec(
                "vm.kernel",
                "latency",
                probability=config.vm_latency_rate,
                latency=config.latency_seconds,
            )
        )
        registry.arm(
            FaultSpec("pool.worker", "kill", probability=config.kill_rate)
        )
        registry.arm(
            FaultSpec(
                "backend.rpc", "error", probability=config.shard_fault_rate
            )
        )
        activate(registry)
        smash_timer = None
        if config.corrupt_disk:
            # Half the fault phase in, smash the on-disk index so the
            # quarantine + rebuild-from-source path must run.
            def smash() -> None:
                index_path = Path(workdir) / "play.json"
                try:
                    raw = bytearray(index_path.read_bytes())
                    for i in range(0, len(raw), 97):
                        raw[i] ^= 0xFF
                    index_path.write_bytes(bytes(raw))
                except OSError:
                    pass

            smash_timer = threading.Timer(config.fault_seconds / 2, smash)
            smash_timer.start()
        fault_result = load("fault", config.fault_seconds, config.seed + 2)
        if smash_timer is not None:
            smash_timer.join(timeout=1.0)

        # Phase 3: recovery.
        deactivate()
        load("recovery-early", config.recovery_seconds / 2, config.seed + 3)
        tail_result = load(
            "recovery", config.recovery_seconds / 2, config.seed + 4
        )
        # Give the breaker time for its half-open probe via the churn
        # thread before taking final readings.
        deadline = monotonic() + max(2.0, 2 * config.breaker_reset)
        while (
            handle.breaker.state != "closed" and monotonic() < deadline
        ):
            sleep(0.05)
        report.loadgen = {
            "fault": fault_result.summary(),
            "recovery": tail_result.summary(),
        }
    finally:
        stop_churn.set()
        churn_thread.join(timeout=5.0)
        deactivate()

    # ------------------------------------------------------------------
    # Final readings + invariants.
    # ------------------------------------------------------------------
    report.reloads = dict(reload_counts)
    report.reduction_checks = oracles.reduction_checks
    report.fault_fires = dict(registry.snapshot()["fires"])
    report.breaker_trips = handle.breaker.trips
    report.breaker_final_state = handle.breaker.state
    report.worker_deaths = service.pool.stats()["worker_deaths"]
    snapshot = service.metrics_snapshot()["metrics"]["counters"]
    rebuilds = snapshot.get("index_rebuilds_total", {})
    report.rebuilds = int(sum(rebuilds.values()))
    report.rpc_errors = registry.fires(point="backend.rpc", mode="error")
    report.vm_kernel_faults = registry.fires(point="vm.kernel", mode="error") + registry.fires(
        point="vm.kernel", mode="latency"
    )
    report.failovers = int(
        sum(snapshot.get("backend_failovers_total", {}).values())
    )
    report.local_fallbacks = int(
        snapshot.get("frontier_fallback_total", {}).get("reason=unavailable", 0)
    )
    report.health_states_seen = service.health.states_seen()
    report.final_health = service.health.state
    report.slo = {
        name: monitor.snapshot()
        for name, monitor in service.slo.monitors.items()
    }
    if service.traces is not None:
        kept = service.traces.all()
        report.traces_kept = len(kept)
        for trace in kept:
            marked = sum(
                1
                for span in trace.root.walk()
                if span.name == "backend.rpc" and span.attributes.get("fault")
            )
            report.fault_marked_spans += marked
            if marked:
                report.fault_marked_traces += 1
        report.slowest_traces = [
            trace.to_summary() for trace in service.traces.slowest(5)
        ]

    fault_counts = report.responses.get("fault", {})
    server_errors = fault_counts.get("500", 0) + fault_counts.get("504", 0)
    # Only evaluator errors and worker kills can surface as 5xx query
    # responses; storage/index faults fail reloads, not queries.
    injected = (
        registry.fires(point="evaluator.step", mode="error")
        + registry.fires(point="vm.kernel", mode="error")
        + registry.fires(point="pool.worker", mode="kill")
    )
    sheds = fault_counts.get("503", 0)
    if server_errors > injected + sheds + 2:
        report.violations.append(
            f"fault-phase server errors ({server_errors}) exceed the "
            f"injected fault budget ({injected} fires + {sheds} shed + 2)"
        )
    if report.breaker_trips < 1:
        report.violations.append(
            "the corpus circuit breaker never tripped despite the "
            "index.build outage"
        )
    if report.breaker_final_state != "closed":
        report.violations.append(
            f"the circuit breaker did not recover (final state "
            f"{report.breaker_final_state!r})"
        )
    if config.corrupt_disk and report.rebuilds < 1:
        report.violations.append(
            "the corrupted index file was never rebuilt from source"
        )
    if report.vm_kernel_faults < 1:
        report.violations.append(
            "no vm.kernel fault ever fired — the compiled execution path "
            "was not exercised under chaos"
        )
    if report.rpc_errors and not (report.failovers or report.local_fallbacks):
        report.violations.append(
            f"backend.rpc faults fired ({report.rpc_errors}) but no shard "
            "call failed over and no query fell back to local evaluation"
        )
    # Every injected backend.rpc fault leaves exactly one fault-marked
    # backend.rpc span, and any trace containing one is tail-kept
    # unconditionally — so the kept traces must account for every fire.
    if report.rpc_errors and report.fault_marked_spans < report.rpc_errors:
        report.violations.append(
            f"only {report.fault_marked_spans} fault-marked backend.rpc "
            f"span(s) were kept for {report.rpc_errors} injected "
            "backend.rpc fault(s) — the tracer lost fault attribution"
        )
    # With enough sustained 5xx the availability fast-burn alert must
    # have fired at least once; a small error count may legitimately
    # never align across both burn windows, so gate on volume.
    availability = report.slo.get("availability", {})
    if server_errors >= 12 and availability.get("activations", 0) < 1:
        report.violations.append(
            f"{server_errors} fault-phase server errors never tripped "
            "the availability fast-burn alert"
        )
    if "degraded" not in report.health_states_seen:
        report.violations.append(
            "the service never reported itself degraded during the faults"
        )
    if report.final_health != "healthy":
        report.violations.append(
            f"the service did not return to healthy (final state "
            f"{report.final_health!r})"
        )
    tail_counts = report.responses.get("recovery", {})
    tail_errors = tail_counts.get("500", 0) + tail_counts.get("504", 0)
    if tail_errors:
        report.violations.append(
            f"{tail_errors} server error(s) in the recovery tail — faults "
            "were cleared, so none are acceptable"
        )
