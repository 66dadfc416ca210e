"""The live-ingestion chaos harness behind ``repro chaos --mode ingest``.

Runs the real serving stack — an ingest-enabled
:class:`~repro.server.QueryService` behind the HTTP front end, driven by
the load generator's write mix — through three phases:

1. **warmup** — clean queries + writes.  The harness keeps a local
   *mirror* :class:`~repro.ingest.LiveCorpus` that applies exactly the
   acknowledged batches in acknowledgment order, and snapshots the
   mirror's assembled instance per published generation; every ``200``
   query response is verified region-for-region against the oracle of
   the generation it reports.
2. **fault** — ``storage.write`` error faults are armed, so a fraction
   of WAL appends fail mid-batch: those writes must be rejected (``5xx``)
   and must *not* change any query answer.  Halfway through, the whole
   service is torn down **without a checkpoint** and rebuilt over the
   same ingest directory — WAL replay must reconstruct a corpus
   bit-identical (``encode_instance`` equality, and the same forest
   parent column) to the mirror of the acknowledged writes.  No
   acknowledged mutation may be lost; no unacknowledged one may appear.
3. **recovery** — faults off, clean writes resume against the recovered
   service, then a manual compaction merges every segment and the run
   ends with the three-way final oracle: serving instance == mirror ==
   a full re-parse of the combined corpus text from scratch.

The run is deterministic for a fixed seed (modulo thread scheduling,
which every invariant is written to tolerate).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, sleep
from typing import Any

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.faults.registry import FaultRegistry, FaultSpec, activate, deactivate
from repro.ingest import LiveCorpus

__all__ = ["IngestChaosConfig", "IngestChaosReport", "run_ingest_chaos"]

#: Added to the play mix: an order template whose bound lies in whichever
#: ingested document last says "prophecy" (the write mix's vocabulary),
#: and a bare match-point query, so both per-piece paths — clamped order
#: bounds and piece-local word postings — serve under WAL faults and
#: across the restart.
CHAOS_EXTRA_QUERIES: dict[str, str] = {
    "speeches_before_prophecy": 'speech before (line @ "prophecy")',
    "prophecy_points": '"prophecy"',
}


@dataclass(frozen=True)
class IngestChaosConfig:
    """Knobs for one ingest-chaos run (defaults match the CI smoke job)."""

    seed: int = 0
    scale: int = 2  #: size of the generated base play
    qps: float = 60.0  #: query rate
    write_rate: float = 8.0  #: ingest batches per second
    concurrency: int = 4
    warmup_seconds: float = 1.0
    fault_seconds: float = 4.0  #: split around the mid-phase restart
    recovery_seconds: float = 3.0
    #: per-WAL-record probability that the write fault point fires
    wal_fault_rate: float = 0.35
    workdir: str | None = None  #: where WALs + checkpoints live (tempdir)


@dataclass
class IngestChaosReport:
    """What one ingest-chaos run observed; ``ok`` iff nothing broke."""

    seed: int = 0
    duration_seconds: float = 0.0
    responses: dict[str, dict[str, int]] = field(default_factory=dict)
    verified_responses: int = 0
    corrupted_responses: int = 0
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
            "writes": self.writes,
            "writes_acked": self.writes_acked,
            "writes_failed": self.writes_failed,
            "generations_published": self.generations_published,
            "wal_fault_fires": self.wal_fault_fires,
            "replayed_batches": self.replayed_batches,
            "restart_bit_identical": self.restart_bit_identical,
            "final_bit_identical": self.final_bit_identical,
            "compaction": self.compaction,
            "documents_final": self.documents_final,
            "violations": self.violations,
        }

    def format_report(self) -> str:
        lines = [
            f"ingest chaos run (seed {self.seed}) "
            f"{'PASSED' if self.ok else 'FAILED'} "
            f"in {self.duration_seconds:.1f}s",
            "responses by phase: "
            + "; ".join(
                f"{phase}: "
                + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
                for phase, counts in self.responses.items()
            ),
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
        if self.violations:
            lines.append("violations:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("violations: none")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The per-generation oracle.
# ----------------------------------------------------------------------


def identity(instance: Any) -> tuple[bytes, list[int]]:
    """What the bit-identity checks compare: the index bytes, and the
    forest's parent column, which the bytes do not carry."""
    from repro.engine.storage import encode_instance

    return encode_instance(instance), instance.forest()._parent_pos


class _Mirror:
    """The acked-writes mirror + generation-keyed verification oracle.

    ``commit(ops, generation)`` applies one acknowledged batch (in ack
    order — the load generator's single writer guarantees ack order is
    server apply order) and snapshots the assembled instance under
    ``(epoch, generation)``.  ``verify`` checks a ``200`` query payload
    against the instance of the generation it reports; responses racing
    ahead of the writer's ack callback park in ``pending`` and are
    settled at the next quiescent point.
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
        if got != expected:
            self.problems.append(
                f"response for {query!r} at generation {generation} "
                f"(epoch {epoch}) disagrees with the acked-writes oracle "
                f"({len(expected - got)} missing, {len(got - expected)} "
                "extra regions)"
            )

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


# ----------------------------------------------------------------------
# The run.
# ----------------------------------------------------------------------


def _service_config(config: IngestChaosConfig, ingest_dir: Path):
    from repro.server.config import CorpusSpec, ServerConfig

    return ServerConfig(
        workers=4,
        queue_depth=64,
        cache_enabled=True,  # exercise the generation-keyed cache
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
        ingest_enabled=True,
        ingest_dir=str(ingest_dir),
        ingest_fsync=True,
        compaction_enabled=False,  # phase 3 compacts manually
    )


def run_ingest_chaos(
    config: IngestChaosConfig | None = None,
) -> IngestChaosReport:
    """Run the three-phase ingest scenario; see the module docstring."""
    import tempfile

    from repro.server.http import create_server
    from repro.server.loadgen import run_load
    from repro.server.service import QueryService
    from repro.workloads.queries import PLAY_QUERIES

    config = config if config is not None else IngestChaosConfig()
    report = IngestChaosReport(seed=config.seed)
    started = monotonic()
    owned_tmp = None
    if config.workdir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-ingest-chaos-")
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
        mirror = _Mirror(handle.engine.instance, base_text)
        mirror.register(handle.generation)

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
                mirror.verify(
                    int(body["generation"]), body["query"], body["regions"]
                )
            except (ValueError, KeyError, UnicodeDecodeError):
                with lock:
                    report.corrupted_responses += 1
                    report.violations.append(
                        "a 200 response failed to parse as a query result"
                    )

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
                    report.violations.append(
                        "a 200 ingest ack failed to parse"
                    )
                return
            # Single writer: acks arrive in server apply order.
            mirror.commit(ops, generation)
            report.writes_acked += 1

        def load(phase_name: str, seconds: float, seed: int, port: int):
            phase["name"] = phase_name
            return run_load(
                "127.0.0.1",
                port,
                {**PLAY_QUERIES, **CHAOS_EXTRA_QUERIES},
                corpus="chaos",
                qps=config.qps,
                duration=seconds,
                concurrency=config.concurrency,
                seed=seed,
                on_response=on_response,
                ingest_rate=config.write_rate,
                on_ingest_response=on_ingest_response,
            )

        # Phase 1: warmup — clean reads + writes build up segments.
        load("warmup", config.warmup_seconds, config.seed + 1, server.bound_port)

        # Phase 2a: WAL write faults armed.
        registry = FaultRegistry(seed=config.seed)
        registry.arm(
            FaultSpec(
                "storage.write", "error", probability=config.wal_fault_rate
            )
        )
        activate(registry)
        load("fault", config.fault_seconds / 2, config.seed + 2, server.bound_port)

        # Phase 2b: tear the whole service down WITHOUT a checkpoint and
        # rebuild it over the same ingest directory — recovery is WAL
        # replay, and it must reproduce the mirror exactly.
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

        load(
            "fault-replayed",
            config.fault_seconds / 2,
            config.seed + 3,
            server.bound_port,
        )
        report.wal_fault_fires = registry.fires(
            point="storage.write", mode="error"
        )

        # Phase 3: recovery — clean writes, then compact, then re-read.
        deactivate()
        load(
            "recovery",
            config.recovery_seconds,
            config.seed + 4,
            server.bound_port,
        )
        report.compaction = service.compact("chaos")
        load(
            "post-compact",
            min(1.0, config.recovery_seconds),
            config.seed + 5,
            server.bound_port,
        )

        unmatched = mirror.settle_pending()
        if unmatched:
            report.violations.append(
                f"{unmatched} response(s) reported a generation the "
                "acked-writes oracle never saw"
            )
        report.verified_responses = mirror.verified
        report.corrupted_responses += len(mirror.problems)
        report.violations.extend(mirror.problems)
        report.generations_published = report.writes_acked
        report.documents_final = mirror.live.document_count

        fault_writes = sum(
            count
            for name in ("fault", "fault-replayed")
            for count in report.writes.get(name, {}).values()
        )
        if fault_writes >= 8 and report.wal_fault_fires == 0:
            report.violations.append(
                f"{fault_writes} writes ran through the fault phase but "
                "the storage.write fault never fired"
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
                "after compaction the serving corpus is not bit-identical "
                "to the mirror of acknowledged writes"
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
