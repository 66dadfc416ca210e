"""The chaos scenario engine behind ``repro chaos``.

A run is **phases × fault schedule × workload × oracle × invariants**:
a :class:`Scenario` declares the five (:mod:`repro.faults.chaos` holds
the four modes) and :func:`execute` runs it against the real HTTP stack
over a temporary directory, each :class:`Phase` an open-loop load seeded
``config.seed + i``.  One collector counts statuses, ``degraded`` and
``fallback`` answers and write acks per phase and hands every ``200`` to
the oracle: :class:`_Oracles` for a fixed corpus (the fault-free baseline
and the Thm 4.4 reduced-instance relation) and :class:`_Mirror` for a
live one, replicated or not (the acknowledged writes replayed, keyed by
generation).  :class:`Run` holds the steps and invariants modes share.
"""

from __future__ import annotations

import http.client
import json
import random
import tempfile
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import monotonic, sleep
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping

from repro.algebra import ast as A
from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.engine.session import Engine
from repro.engine.storage import encode_instance, save_instance
from repro.faults.registry import FaultRegistry, FaultSpec, activate, deactivate
from repro.ingest import LiveCorpus
from repro.properties.reduction import isomorphic_sibling_pairs, reduce_regions
from repro.server.config import CorpusSpec, ServerConfig
from repro.server.http import create_server
from repro.server.loadgen import run_load
from repro.server.service import QueryService
from repro.workloads.corpora import generate_play
from repro.workloads.queries import PLAY_QUERIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.chaos import ChaosConfig

__all__ = ["CHAOS_EXTRA_QUERIES", "Phase", "Run", "Scenario",
           "ScenarioReport", "execute", "identity"]

#: Added to the ingest mode's play mix: an order template whose bound
#: lies in whichever ingested document last says "prophecy" (the write
#: mix's vocabulary), and a bare match-point query, so both per-piece
#: paths — clamped order bounds and piece-local word postings — serve
#: under WAL faults and across the restart.
CHAOS_EXTRA_QUERIES: dict[str, str] = {
    "speeches_before_prophecy": 'speech before (line @ "prophecy")',
    "prophecy_points": '"prophecy"',
}

#: Plays concatenated into a fixed corpus: a multi-root forest the shard
#: layer can cut (one play is one tree, a single segment).
DOCUMENTS = 3
#: Availability the kill window must keep.
MIN_KILL_AVAILABILITY = 0.9


@dataclass
class ScenarioReport:
    """What one run observed; ``ok`` iff no invariant broke.  Modes add
    their readings as fields; ``summary()`` is every field (``round``
    metadata rounds a float), ``format_report()`` adds ``_lines()``."""

    title: ClassVar[str] = "chaos"

    seed: int = 0
    duration_seconds: float = field(default=0.0, metadata={"round": 2})
    responses: dict[str, dict[str, int]] = field(default_factory=dict)
    verified_responses: int = 0
    corrupted_responses: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {"ok": self.ok}
        for f in fields(self):
            value, digits = getattr(self, f.name), f.metadata.get("round")
            out[f.name] = value if digits is None else round(value, digits)
        out["violations"] = out.pop("violations")
        return out

    def format_report(self) -> str:
        lines = [
            f"{self.title} run (seed {self.seed}) "
            f"{'PASSED' if self.ok else 'FAILED'} "
            f"in {self.duration_seconds:.1f}s",
            "responses by phase: "
            + "; ".join(
                f"{phase}: {counts_line(counts)}"
                for phase, counts in self.responses.items()
            ),
            *self._lines(),
        ]
        if self.violations:
            lines.append("violations:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("violations: none")
        return "\n".join(lines)

    def _lines(self) -> list[str]:
        return []


def counts_line(counts: Mapping[str, Any]) -> str:
    """``"a: 1, b: 2"`` in key order, or ``"none"``."""
    return ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())) or "none"


# -- oracles -----------------------------------------------------------


def identity(instance: Any) -> tuple[bytes, list[int]]:
    """What the bit-identity checks compare: the index bytes, and the
    forest's parent column, which the bytes do not carry."""
    return encode_instance(instance), instance.forest()._parent_pos


class _Oracles:
    """Baseline + reduction-theorem verification for a fixed corpus.

    Built from the fault-free engine.  ``verify`` checks a ``200``
    payload (a) region-for-region against the fault-free baseline and
    (b), for order-free queries where a legal reduce step exists,
    against the k=0-reduced instance through the mapping ``h``
    (Theorem 4.4: order-free expressions cannot distinguish ``I`` from
    any reduced version).  Verdicts are immediate: none is deferred.
    """

    problems: tuple[str, ...] = ()

    def __init__(self, engine, queries: Mapping[str, str]):
        self.baseline: dict[str, set[tuple[int, int]]] = {}
        self.reduction: dict[str, set[tuple[int, int]]] = {}
        self._verdicts: dict[tuple[str, tuple], bool] = {}
        self.reduction_checks = 0
        self.verified = 0
        instance = engine.instance
        self._instance_regions = [
            (r.left, r.right) for r in instance.all_regions()
        ]
        order_free: dict[str, A.Expr] = {}
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

    def check(self, body: dict[str, Any]) -> list[str]:
        """The collector's hook: verify one parsed ``200`` body."""
        return self.verify(body["query"], body["regions"])

    def verify(self, query: str, regions: list[list[int]]) -> list[str]:
        """Problems with one 200 payload (empty list = verified)."""
        self.verified += 1
        if query not in self.baseline:
            return []  # not a mix query (should not happen)
        got = {(int(l), int(r)) for l, r in regions}
        key = (query, tuple(sorted(got)))
        if key in self._verdicts:
            return [] if self._verdicts[key] else ["(repeat of earlier corruption)"]
        problems: list[str] = []
        expected = self.baseline[query]
        if got != expected:
            problems.append(
                f"response for {query!r} disagrees with the fault-free "
                f"baseline ({len(expected - got)} missing, "
                f"{len(got - expected)} extra regions)"
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

    def settle_pending(self) -> int:
        return 0


class _Mirror:
    """The acked-writes mirror + generation-keyed verification oracle.

    ``commit(ops, generation)`` applies one acknowledged batch (the load
    generator's single writer acks in server apply order) and snapshots
    the instance under ``(epoch, generation)``.  ``verify`` checks a
    ``200`` against the generation it reports; answers racing ahead of
    the ack park in ``pending`` until ``settle_pending``.  Problems
    collect in ``problems``.
    """

    def __init__(self, base_instance, base_text: str):
        self.live = LiveCorpus(base_instance, base_text)
        self.epoch = 0
        self.lock = threading.Lock()
        self._instances: dict[tuple[int, int], Any] = {}
        self._expected: dict[tuple[int, int, str], set] = {}
        self._evaluator = Evaluator("indexed")
        self.pending: list[tuple[int, int, str, frozenset]] = []
        self.verified = 0
        self.problems: list[str] = []

    def register(self, generation: int) -> None:
        with self.lock:
            self._instances[(self.epoch, generation)] = self.live.instance

    def commit(self, ops: list[dict[str, Any]], generation: int) -> None:
        self.live.apply(ops)
        self.register(generation)

    def rebase_epoch(self, generation: int) -> None:
        """After a service restart, generations restart from scratch."""
        with self.lock:
            self.epoch += 1
            self._instances[(self.epoch, generation)] = self.live.instance

    def _expected_regions(self, epoch: int, generation: int, query: str):
        key = (epoch, generation, query)
        cached = self._expected.get(key)
        if cached is not None:
            return cached
        instance = self._instances.get((epoch, generation))
        if instance is None:
            return None
        result = {
            (r.left, r.right)
            for r in self._evaluator.evaluate(parse(query), instance)
        }
        self._expected[key] = result
        return result

    def check(self, body: dict[str, Any]) -> list[str]:
        """The collector's hook; problems are deferred to ``problems``."""
        self.verify(int(body["generation"]), body["query"], body["regions"])
        return []

    def verify(self, generation: int, query: str, regions) -> None:
        got = frozenset((int(l), int(r)) for l, r in regions)
        with self.lock:
            epoch = self.epoch
            expected = self._expected_regions(epoch, generation, query)
            if expected is None:
                self.pending.append((epoch, generation, query, got))
                return
            self._check(epoch, generation, query, got, expected)

    def _check(self, epoch, generation, query, got, expected) -> None:
        self.verified += 1
        if got == expected:
            return
        problem = (
            f"response for {query!r} at generation {generation} "
            f"(epoch {epoch}) disagrees with the acked-writes oracle "
            f"({len(expected - got)} missing, {len(got - expected)} "
            "extra regions)"
        )
        # Name the generation it does answer, if any: a stale read or
        # one from before a restart reads differently from corruption.
        for e, other in sorted(self._instances):
            if self._expected_regions(e, other, query) == got:
                problem += f"; it is generation {other}'s answer (epoch {e})"
                break
        self.problems.append(problem)

    def settle_pending(self) -> int:
        """Verify every parked response (call only while quiescent);
        returns how many could not be matched to a known generation."""
        with self.lock:
            unmatched = 0
            for epoch, generation, query, got in self.pending:
                expected = self._expected_regions(epoch, generation, query)
                if expected is None:
                    unmatched += 1
                    continue
                self._check(epoch, generation, query, got, expected)
            self.pending.clear()
            return unmatched


def fixed_oracle(run: Run) -> _Oracles:
    """A fixed corpus's oracle, from the engine the service loaded."""
    return _Oracles(run.handle.engine, run.scenario.queries)


def mirror_oracle(run: Run) -> _Mirror:
    """A live corpus's oracle: a mirror of the served base."""
    engine = run.handle.engine
    assert engine.text is not None  # synthetic corpora carry their text
    mirror = _Mirror(engine.instance, engine.text)
    mirror.register(run.handle.generation)
    return mirror


# -- corpora and declarations -------------------------------------------


def index_corpus(run: Run) -> CorpusSpec:
    """``DOCUMENTS`` generated plays indexed to ``play.index`` beside
    their source; backend subprocesses load the same file."""
    scale, rng = max(1, run.config.scale), random.Random(run.config.seed)
    text = "\n".join(
        generate_play(rng, acts=scale, scenes_per_act=scale,
                      speeches_per_scene=2 * scale, lines_per_speech=3)
        for _ in range(DOCUMENTS)
    )
    source_path = run.workdir / "play.tagged"
    source_path.write_text(text, encoding="utf-8")
    index_path = run.workdir / "play.index"
    save_instance(Engine.from_tagged_text(text).instance, index_path)
    return CorpusSpec(name="chaos", kind="index", path=str(index_path),
                      source=str(source_path), source_format="tagged")


def live_corpus(run: Run) -> dict[str, Any]:
    """Server settings for a seeded synthetic corpus with ingestion on
    (backend subprocesses build a bit-identical base from the seed) and
    its WAL in the run's directory."""
    spec = CorpusSpec(name="chaos", kind="synthetic", path="play",
                      seed=run.config.seed, scale=max(1, run.config.scale))
    return dict(
        corpora=(spec,),
        ingest_enabled=True, ingest_dir=str(run.workdir), ingest_fsync=True,
        compaction_enabled=False,
    )


@dataclass(frozen=True)
class Phase:
    """One load window: ``seconds(config)`` of the scenario's workload
    with the fault registry active iff ``faults``.  ``before`` runs
    first (after the registry is switched), ``at = (delay(config),
    action)`` fires ``action`` that far into the load, ``after`` last."""

    name: str
    seconds: Callable[[ChaosConfig], float]
    faults: bool = False
    before: Callable[[Run], None] | None = None
    at: tuple[Callable[[ChaosConfig], float], Callable[[Run], None]] | None = None
    after: Callable[[Run], None] | None = None


@dataclass(frozen=True)
class Scenario:
    """One chaos mode: phases × fault schedule × workload × oracle ×
    invariants, plus the server it runs against."""

    report: type[ScenarioReport]
    server: Callable[[Run], ServerConfig]  #: corpus + service settings
    phases: tuple[Phase, ...]
    finish: Callable[[Run], None]  #: final readings + invariants
    #: the fault schedule: specs armed on the run's seeded registry
    faults: Callable[[ChaosConfig], tuple[FaultSpec, ...]] = lambda config: ()
    #: built once the service is up (``fixed_oracle``/``mirror_oracle``)
    oracle: Callable[[Run], Any] = fixed_oracle
    queries: Mapping[str, str] = field(default_factory=lambda: PLAY_QUERIES)
    use_cache: bool = False  #: loadgen cache flag (off: every 200 fresh)
    write_rate: float = 0.0  #: ingest batches/s unless the config sets one


# -- the run -----------------------------------------------------------


class Run:
    """One scenario in flight: its service, collector and fault registry."""

    def __init__(self, scenario: Scenario, config: ChaosConfig, workdir: Path):
        self.scenario, self.config, self.workdir = scenario, config, workdir
        self.report = scenario.report(seed=config.seed)
        self.registry = FaultRegistry(seed=config.seed)
        for spec in scenario.faults(config):
            self.registry.arm(spec)
        self.write_rate = (
            scenario.write_rate if config.write_rate is None else config.write_rate
        )
        self.server_config: ServerConfig | None = None
        self.service = self.server = self.handle = self.oracle = None
        # The collector's state; ``phase`` labels everything it counts.
        self.lock = threading.Lock()
        self.phase = ""
        self.degraded: dict[str, int] = {}  #: per phase
        self.fallbacks: dict[str, int] = {}  #: per reason
        self.writes: dict[str, dict[str, int]] = {}  #: per phase, status
        self.acked = self.failed = 0
        self.results: dict[str, Any] = {}  #: loadgen result per phase
        self.probe_breakers: dict[str, str] = {}  #: at the probe wait's end
        self.cleanups: list[Callable[[], None]] = []  #: after the phases

    def start(self) -> None:
        """Start the service and its HTTP server; every start uses the
        same settings, so a restart reopens the same directory."""
        if self.server_config is None:
            self.server_config = self.scenario.server(self)
        self.service = QueryService(self.server_config)
        self.server = create_server(self.service, port=0)
        self.server.serve_in_background()
        self.handle = self.service._handle("chaos")

    def stop(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            server.stop()

    def cold_restart(self) -> None:
        """Restart without a checkpoint over the same ingest directory;
        WAL replay must rebuild the acked-writes mirror bit for bit."""
        acked_before_restart = self.acked
        self.stop()
        self.start()
        report = self.report
        info = self.service.ingest_info()["corpora"]["chaos"]
        report.replayed_batches = info["replayed_batches"]
        self.oracle.rebase_epoch(self.handle.generation)
        mirrored = identity(self.oracle.live.instance)
        served = identity(self.handle.engine.instance)
        report.restart_bit_identical = served == mirrored
        if not report.restart_bit_identical:
            self.violate(
                "the recovered corpus is not bit-identical to the mirror "
                "of acknowledged writes — WAL replay lost or invented a "
                "mutation"
            )
        if acked_before_restart > 0 and report.replayed_batches < 1:
            self.violate(
                f"{acked_before_restart} batch(es) were acked before the "
                "restart but none were replayed from the WAL"
            )

    # -- the collector -------------------------------------------------

    def on_response(self, status: int, payload: bytes) -> None:
        name, report = self.phase, self.report
        with self.lock:
            counts = report.responses.setdefault(name, {})
            counts[str(status)] = counts.get(str(status), 0) + 1
            if status != 200:
                return
            try:
                body = json.loads(payload)
                problems = self.oracle.check(body)
            except (ValueError, KeyError, UnicodeDecodeError):
                report.corrupted_responses += 1
                report.violations.append(
                    "a 200 response failed to parse as a query result"
                )
                return
            backend = body.get("backend") or {}
            if backend.get("degraded"):
                self.degraded[name] = self.degraded.get(name, 0) + 1
            reason = backend.get("fallback")
            if reason:
                self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
            if problems:
                report.corrupted_responses += 1
                report.violations.extend(problems)

    def on_ingest_response(self, ops, status: int, payload: bytes) -> None:
        with self.lock:
            counts = self.writes.setdefault(self.phase, {})
            counts[str(status)] = counts.get(str(status), 0) + 1
            if status != 200:
                self.failed += 1
                return
        try:
            generation = int(json.loads(payload)["generation"])
        except (ValueError, KeyError, UnicodeDecodeError):
            self.violate("a 200 ingest ack failed to parse")
            return
        # Single writer: acks arrive in server apply order.
        self.oracle.commit(ops, generation)
        self.acked += 1

    def load(self, phase: str, seconds: float, seed: int):
        """``seconds`` of the scenario's workload, collected as ``phase``."""
        self.phase = phase
        return run_load(
            "127.0.0.1", self.server.bound_port, self.scenario.queries,
            corpus="chaos", qps=self.config.qps, duration=seconds,
            concurrency=self.config.concurrency,
            use_cache=self.scenario.use_cache, seed=seed,
            on_response=self.on_response, ingest_rate=self.write_rate,
            on_ingest_response=self.on_ingest_response,
        )

    def post_query(self, query: str, collect: bool = False):
        """One direct ``POST /query`` (cache off): ``(status,
        parsed|None)``; ``collect`` also hands it to the collector."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.server.bound_port, timeout=10.0
        )
        try:
            body = {"query": query, "corpus": "chaos", "use_cache": False}
            connection.request(
                "POST", "/query", body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            status, payload = response.status, response.read()
        finally:
            connection.close()
        if collect:
            self.on_response(status, payload)
        try:
            return status, json.loads(payload)
        except (ValueError, UnicodeDecodeError):
            return status, None

    def run_phase(self, phase: Phase, seed: int) -> None:
        if phase.faults:
            activate(self.registry)
        else:
            deactivate()
        if phase.before is not None:
            phase.before(self)
        timer = None
        if phase.at is not None:
            delay, action = phase.at
            timer = threading.Timer(delay(self.config), action, args=(self,))
            timer.start()
        seconds = phase.seconds(self.config)
        self.results[phase.name] = self.load(phase.name, seconds, seed)
        if timer is not None:
            timer.join(timeout=1.0)
        if phase.after is not None:
            phase.after(self)

    # -- shared steps --------------------------------------------------

    def violate(self, message: str) -> None:
        with self.lock:
            self.report.violations.append(message)

    def counters(self) -> dict[str, dict[str, float]]:
        return self.service.metrics_snapshot()["metrics"]["counters"]

    def breakers(self) -> dict[str, str]:
        nodes = self.service.frontier.nodes
        return {node.id: node.breaker.state for node in nodes}

    def kill_victim(self) -> None:
        """SIGKILL the primary replica of shard group 0."""
        replicas = self.service.frontier.replicas_for("chaos", 0)
        self.report.killed_node = replicas[0].id
        self.service.supervisor.kill(self.report.killed_node)

    def await_respawn(self, floor: float) -> None:
        """Wait for the victim's respawn, then probe (through the
        collector, as phase ``probe``) until every breaker is closed — a
        breaker closes on a good half-open probe, and probes only happen
        under traffic.  At most ``max(floor, 4 × (respawn delay +
        breaker reset))`` seconds in all."""
        config, victim = self.config, self.report.killed_node
        supervisor = self.service.supervisor
        deadline = monotonic() + max(
            floor, 4 * (config.respawn_delay + config.breaker_reset)
        )
        while supervisor.respawns(victim) < 1 and monotonic() < deadline:
            sleep(0.1)
        self.report.respawns = supervisor.respawns(victim)
        self.phase = "probe"
        probe = next(iter(self.scenario.queries.values()))
        while monotonic() < deadline:
            if all(state == "closed" for state in self.breakers().values()):
                break
            try:
                self.post_query(probe, collect=True)
            except OSError:
                pass
            sleep(0.1)
        self.probe_breakers = self.breakers()

    def await_current(self, seconds: float) -> dict[str, str]:
        """Sweep until every (node, corpus) audit answers ``current`` or
        ``seconds`` pass; returns the last sweep's per-node outcomes."""
        deadline = monotonic() + seconds
        while True:
            sweep = self.service.replication.sweep()
            outcomes = dict(sweep["corpora"].get("chaos", {}))
            current = all(o == "current" for o in outcomes.values())
            if (outcomes and current) or monotonic() >= deadline:
                return outcomes
            sleep(0.2)

    # -- shared invariants ---------------------------------------------

    def require_200(self, phase: str, tail: str) -> None:
        counts = self.report.responses.get(phase, {})
        errors = sum(n for status, n in counts.items() if status != "200")
        if errors:
            self.violate(f"{errors} non-200 response(s) {tail}")

    def check_kill(self, victim_kind: str) -> None:
        """Kill-window availability against its floor, the respawn, and
        every breaker closed; an open one is named with its state at the
        end of the run and at the end of the probe wait."""
        report = self.report
        counts = report.responses.get("kill", {})
        total = sum(counts.values())
        report.kill_availability = counts.get("200", 0) / total if total else 0.0
        if total == 0:
            self.violate("no responses arrived during the kill phase")
        elif report.kill_availability < MIN_KILL_AVAILABILITY:
            self.violate(
                f"availability during the kill window was "
                f"{report.kill_availability:.1%} "
                f"(minimum {MIN_KILL_AVAILABILITY:.0%}) — failover did "
                f"not absorb the dead {victim_kind}"
            )
        if report.respawns < 1:
            self.violate(f"the supervisor never respawned {report.killed_node}")
        breakers = sorted(report.final_breakers.items())
        still_open = [(n, state) for n, state in breakers if state != "closed"]
        if still_open:
            self.violate(
                "breakers did not re-close after the respawn: "
                + ", ".join(
                    f"{node}: {state} at the end of the run, "
                    f"{self.probe_breakers.get(node, '?')} at the end of "
                    "the probe wait"
                    for node, state in still_open
                )
            )

    def check_writes(self, phases: tuple[str, ...], point: str) -> None:
        """Writes flowed through the fault phases and ``point`` bit them."""
        fault_writes = sum(
            n for name in phases for n in self.writes.get(name, {}).values()
        )
        if fault_writes >= 8 and self.registry.fires(point=point) == 0:
            self.violate(
                f"{fault_writes} writes ran through the fault phase but "
                f"the {point} fault never fired"
            )
        if self.acked < 1:
            self.violate("no write was ever acknowledged")

    def check_three_way(self) -> None:
        """Serving corpus == mirror == a full re-parse, bit for bit."""
        serving = identity(self.service._handle("chaos").engine.instance)
        mirrored = identity(self.oracle.live.instance)
        scratch_instance = self.oracle.live.oracle_instance()
        scratch = (
            identity(scratch_instance) if scratch_instance is not None else None
        )
        self.report.final_bit_identical = serving == mirrored == scratch
        if serving != mirrored:
            self.violate(
                "the serving corpus is not bit-identical to the mirror of "
                "acknowledged writes"
            )
        if mirrored != scratch:
            self.violate(
                "the mirror is not bit-identical to a rebuilt-from-scratch "
                "parse of the combined corpus text"
            )

    def settle_oracle(self) -> None:
        """Verify parked answers; fold the oracle's verdicts in."""
        unmatched = self.oracle.settle_pending()
        if unmatched:
            self.violate(
                f"{unmatched} response(s) reported a generation the "
                "acked-writes oracle never saw"
            )
        report = self.report
        report.verified_responses = self.oracle.verified
        report.corrupted_responses += len(self.oracle.problems)
        report.violations.extend(self.oracle.problems)


def execute(scenario: Scenario, config: ChaosConfig) -> ScenarioReport:
    """Run ``scenario`` once under ``config``; see the module docstring."""
    started = monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        run = Run(scenario, config, Path(tmp))
        try:
            run.start()
            run.oracle = scenario.oracle(run)
            try:
                for seed, phase in enumerate(scenario.phases, config.seed + 1):
                    run.run_phase(phase, seed)
            finally:
                for cleanup in run.cleanups:
                    cleanup()
                deactivate()
            run.settle_oracle()
            scenario.finish(run)
        finally:
            deactivate()
            run.stop()
    run.report.duration_seconds = monotonic() - started
    return run.report
