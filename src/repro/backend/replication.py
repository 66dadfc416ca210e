"""WAL log shipping to backend replicas, snapshot repair, and anti-entropy.

The missing half of live ingestion over a multi-process topology: the
frontier owns the WAL (durability) and the backends own serving slices
(availability), so every committed batch must travel from the one to
the many before reads can rely on the replicas.  The
:class:`ReplicationCoordinator` runs frontier-side and does three jobs:

**Shipping.**  ``ship()`` is called synchronously from the ingest
commit path, while the corpus writer lock is still held and before the
commit's generation is published — shipping in commit order is what
lets a replica apply batches as a pure sequence with no reordering
buffer, and publishing after the ship is what keeps reads stamped with
a generation away from replicas it is still travelling to.  Each batch becomes a checksummed record
(the same canonical-JSON sha256 discipline as the WAL's on-disk
records), is serialized once, passed through the ``replication.ship``
fault point *per node* (so an injected corruption hits one replica's
copy, not the commit), re-parsed, and delivered via
``replicate_apply``.  The receiving node recomputes the checksum and
rejects mismatches; the coordinator treats any non-``applied`` answer
as that node falling behind — **a ship failure never fails the
ingest**; the write was already durable in the frontier's WAL.  A
reload mints a generation with no batch behind it: ``resync()`` sends
every node a snapshot of the rebased state instead, under the same
lock and before the same publish.

**Catch-up.**  A node whose applied generation differs from the
frontier's — respawned blank, partitioned, one that rejected a corrupt
copy, or one left over from a previous frontier incarnation whose
generation counter reset — gets a full state snapshot (the same
``LiveCorpus.state`` shape the WAL checkpoints) at the current
generation.  One repair for every gap: a snapshot never depends on what
base the node held.  Catch-up runs from the periodic sweep, and is
re-entrant per ``(node, corpus)``.  It is sent under the corpus writer
lock, so snapshots and ships reach a node in commit order.

**Anti-entropy.**  The sweep also audits nodes that *claim* to be
current: ``replicate_status`` returns a content checksum per shard
group (:func:`~repro.backend.base.slice_checksum` — generation-
independent, so it compares served bytes, not clocks), and the
coordinator compares them against checksums computed from the
frontier's own authoritative slices.  Divergence — a replica at the
right generation serving the wrong regions — is repaired with a
snapshot re-ship and counted in ``replication_divergence_total``.

Lag feeds health: a node more than ``lag_limit`` generations behind
(or unreachable) raises ``replication:<node>`` pressure on the health
monitor, which degrades the service the same way an open corpus
breaker does.  Reads are protected independently of all of this: a
replica answers a read only at the generation the read is stamped with
(see ``ShardBackend.shard_query``); the coordinator's job is to make
replicas *catch up to* it, not to gate reads.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, ContextManager, Mapping, Sequence

from repro.errors import BackendError, FaultInjected
from repro.faults import registry as _faults
from repro.ingest.wal import wal_checksum
from repro.obs import metrics as _m
from repro.obs.trace import maybe_span

__all__ = ["ReplicationCoordinator"]


class _NodeLedger:
    """What the coordinator believes about one node's replicas."""

    def __init__(self) -> None:
        #: corpus -> generation the node acked last.
        self.applied: dict[str, int] = {}
        self.reachable = True
        self.last_error: str | None = None
        self.catchups = 0

    def snapshot(self) -> dict[str, Any]:
        return {
            "applied": dict(sorted(self.applied.items())),
            "reachable": self.reachable,
            "last_error": self.last_error,
            "catchups": self.catchups,
        }


class ReplicationCoordinator:
    """See the module docstring.

    ``state_provider(corpus)`` is a context manager that holds the
    corpus writer lock — the one ``ship()`` is called under — and yields
    ``(generation, dump)``: the published generation and a zero-argument
    callable returning the ``LiveCorpus.state`` dump at it.
    ``checksum_provider(corpus)`` returns the frontier's own
    ``(generation, {group: checksum})`` truth for anti-entropy, and
    ``generation_provider(corpus)`` its published generation, the one
    lag is measured against.  ``corpora()`` enumerates the writable
    corpora worth sweeping.
    """

    def __init__(
        self,
        frontier: Any,
        corpora: Callable[[], Sequence[str]],
        state_provider: Callable[
            [str],
            ContextManager[tuple[int, Callable[[], dict[str, Any]]]],
        ],
        checksum_provider: Callable[[str], tuple[int, dict[int, str]]],
        generation_provider: Callable[[str], int],
        metrics: Any,
        tracer: Any = None,
        health: Any = None,
        interval: float = 2.0,
        lag_limit: int = 8,
    ):
        self.frontier = frontier
        self._corpora = corpora
        self._state_provider = state_provider
        self._checksum_provider = checksum_provider
        self._generation_provider = generation_provider
        self._tracer = tracer
        self._health = health
        self.interval = float(interval)
        self.lag_limit = int(lag_limit)
        self._ledgers: dict[str, _NodeLedger] = {
            node.id: _NodeLedger() for node in frontier.nodes
        }
        self._lock = threading.RLock()
        self._shipped = metrics.counter(
            _m.REPLICATION_BATCHES_SHIPPED_TOTAL,
            "WAL batches shipped to backend replicas, by outcome",
        )
        self._ship_failures = metrics.counter(
            _m.REPLICATION_SHIP_FAILURES_TOTAL,
            "per-node ship attempts that did not end in an apply",
        )
        self._catchups = metrics.counter(
            _m.REPLICATION_CATCHUPS_TOTAL,
            "snapshot repairs shipped, by node",
        )
        self._divergence = metrics.counter(
            _m.REPLICATION_DIVERGENCE_TOTAL,
            "checksum divergences found (and repaired) by the sweep",
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the periodic catch-up / anti-entropy sweep thread."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-replication", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sweep()
            except Exception:  # pragma: no cover - sweep must never die
                pass

    # ------------------------------------------------------------------
    # The ship path (called from the ingest commit, writer lock held).
    # ------------------------------------------------------------------

    def ship(
        self,
        corpus: str,
        seq: int,
        ops: Sequence[Mapping[str, Any]],
        generation: int,
    ) -> dict[str, Any]:
        """Ship one committed batch to every node serving ``corpus``.

        Returns ``{"nodes", "applied", "failed"}`` counts for the ingest
        response.  Never raises: a node that cannot take the batch is
        left to the sweep's snapshot repair.
        """
        record = {
            "corpus": corpus,
            "seq": int(seq),
            "generation": int(generation),
            "ops": [dict(op) for op in ops],
        }
        record["checksum"] = wal_checksum(record)
        wire = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        nodes = self._nodes_for(corpus)
        applied = failed = 0
        with maybe_span(
            self._tracer,
            "replication.ship",
            corpus=corpus,
            generation=generation,
            nodes=len(nodes),
        ):
            for node in nodes:
                if self._ship_one(node, corpus, wire, generation):
                    applied += 1
                else:
                    failed += 1
        self._refresh_lag()
        return {"nodes": len(nodes), "applied": applied, "failed": failed}

    def resync(
        self, corpus: str, generation: int, state: dict[str, Any]
    ) -> dict[str, Any]:
        """Snapshot every node serving ``corpus`` to ``generation``: the
        ship of a reload, which has no batch to send.

        Called like :meth:`ship`, under the corpus writer lock and before
        the generation is published, so it never re-takes that lock.
        Returns the same counts; a node that cannot take the snapshot is
        left to the sweep, as a failed ship is.
        """
        nodes = self._nodes_for(corpus)
        applied = sum(
            self._send_snapshot(node, corpus, generation, state) == "repaired"
            for node in nodes
        )
        self._refresh_lag()
        return {
            "nodes": len(nodes),
            "applied": applied,
            "failed": len(nodes) - applied,
        }

    def _ship_one(
        self, node: Any, corpus: str, wire: bytes, generation: int
    ) -> bool:
        """One node's copy of the batch: fault point, parse, deliver."""
        ledger = self._ledger(node.id)
        try:
            payload = _faults.fire("replication.ship", bytes(wire))
        except FaultInjected as exc:
            self._ship_failures.inc(node=node.id, reason="fault")
            ledger.last_error = str(exc)
            return False
        try:
            shipped = json.loads((payload or b"").decode("utf-8"))
            answer = node.backend.replicate_apply(
                corpus=str(shipped["corpus"]),
                seq=int(shipped["seq"]),
                ops=shipped["ops"],
                generation=int(shipped["generation"]),
                checksum=str(shipped["checksum"]),
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            # The injected corruption mangled the copy before it left:
            # same outcome as a remote checksum rejection.
            self._ship_failures.inc(node=node.id, reason="corrupt")
            ledger.last_error = f"corrupt ship payload: {exc}"
            return False
        except BackendError as exc:
            self._ship_failures.inc(node=node.id, reason="transport")
            ledger.reachable = False
            ledger.last_error = str(exc)
            return False
        ledger.reachable = True
        status = str(answer.get("status", ""))
        with self._lock:
            ledger.applied[corpus] = max(
                ledger.applied.get(corpus, 0), int(answer.get("applied", 0))
            )
        if status in ("applied", "stale"):
            ledger.last_error = None
            self._shipped.inc(node=node.id, outcome=status)
            return True
        self._ship_failures.inc(node=node.id, reason=status or "unknown")
        ledger.last_error = f"replicate_apply answered {status or '?'}"
        return False

    # ------------------------------------------------------------------
    # Snapshot repair and anti-entropy.
    # ------------------------------------------------------------------

    def sweep(self) -> dict[str, Any]:
        """One repair + anti-entropy pass over every (node, corpus).

        Safe to call directly (tests, chaos harnesses) as well as from
        the background thread.
        """
        report: dict[str, Any] = {"corpora": {}, "repaired": 0}
        for corpus in list(self._corpora()):
            truth_gen, truth_sums = self._checksum_provider(corpus)
            corpus_report = {}
            for node in self._nodes_for(corpus):
                outcome = self._audit(node, corpus, truth_gen, truth_sums)
                corpus_report[node.id] = outcome
                if outcome == "repaired":
                    report["repaired"] += 1
            report["corpora"][corpus] = corpus_report
        self._refresh_lag()
        return report

    def _audit(
        self,
        node: Any,
        corpus: str,
        truth_gen: int,
        truth_sums: Mapping[int, str],
    ) -> str:
        ledger = self._ledger(node.id)
        try:
            status = node.backend.replicate_status(corpus, self.frontier.groups)
        except BackendError as exc:
            ledger.reachable = False
            ledger.last_error = str(exc)
            return "unreachable"
        ledger.reachable = True
        applied = int(status.get("applied", 0))
        with self._lock:
            ledger.applied[corpus] = applied
        if applied != truth_gen:
            # Behind (missed ships, respawned blank) or ahead (left
            # from a previous frontier incarnation whose generation
            # counter reset): either way, replace it wholesale.
            return self._snapshot_ship(node, corpus, diverged=False)
        reported = {
            int(group): checksum
            for group, checksum in dict(status.get("checksums", {})).items()
        }
        diverged = [
            group
            for group, checksum in truth_sums.items()
            if reported.get(group) != checksum
        ]
        if diverged:
            self._divergence.inc(node=node.id, corpus=corpus)
            ledger.last_error = (
                f"divergence in groups {sorted(diverged)} at "
                f"generation {applied}"
            )
            return self._snapshot_ship(node, corpus, diverged=True)
        return "current"

    def _snapshot_ship(self, node: Any, corpus: str, diverged: bool) -> str:
        """Replace the node's replica wholesale at the current
        generation — the one repair, whatever the node held.

        The snapshot is dumped and sent under the corpus writer lock,
        the lock ``ship()`` runs under, so it takes its place in commit
        order: no ship of G+1 can land before a snapshot of G and be
        rolled back by it.  A node the audit found at another generation
        is asked again under the lock first — the audit routinely races
        the ship of a generation already installed, and a node that ship
        has since brought to the truth needs no repair."""
        ledger = self._ledger(node.id)
        try:
            with self._state_provider(corpus) as (generation, dump):
                if not diverged:
                    status = node.backend.replicate_status(
                        corpus, self.frontier.groups
                    )
                    applied = int(status.get("applied", 0))
                    if applied == generation:
                        with self._lock:
                            ledger.applied[corpus] = applied
                        return "current"
                return self._send_snapshot(node, corpus, generation, dump())
        except BackendError as exc:
            return self._snapshot_failed(node, exc)

    def _send_snapshot(
        self, node: Any, corpus: str, generation: int, state: dict[str, Any]
    ) -> str:
        """Deliver one snapshot of ``corpus`` at ``generation``; the
        caller holds the corpus writer lock."""
        ledger = self._ledger(node.id)
        try:
            with maybe_span(
                self._tracer,
                "replication.snapshot",
                node=node.id,
                corpus=corpus,
                generation=generation,
            ):
                answer = node.backend.replicate_snapshot(
                    corpus, state, generation
                )
        except BackendError as exc:
            return self._snapshot_failed(node, exc)
        ledger.reachable = True
        ledger.last_error = None
        ledger.catchups += 1
        with self._lock:
            ledger.applied[corpus] = int(answer.get("applied", generation))
        self._catchups.inc(node=node.id)
        return "repaired"

    def _snapshot_failed(self, node: Any, exc: BackendError) -> str:
        ledger = self._ledger(node.id)
        ledger.reachable = False
        ledger.last_error = str(exc)
        self._ship_failures.inc(node=node.id, reason="snapshot")
        return "unreachable"

    # ------------------------------------------------------------------
    # Lag accounting.
    # ------------------------------------------------------------------

    def _refresh_lag(self) -> None:
        """Worst-corpus lag per node -> health pressure."""
        for node in self.frontier.nodes:
            ledger = self._ledger(node.id)
            worst = 0
            for corpus in list(self._corpora()):
                truth_gen = self._truth_generation(corpus)
                with self._lock:
                    applied = ledger.applied.get(corpus, 0)
                worst = max(worst, truth_gen - applied)
            if not ledger.reachable:
                worst = max(worst, self.lag_limit + 1)
            if self._health is not None:
                self._health.set_pressure(
                    f"replication:{node.id}", worst > self.lag_limit
                )

    def _truth_generation(self, corpus: str) -> int:
        """The frontier's published generation of ``corpus``."""
        try:
            return int(self._generation_provider(corpus))
        except Exception:  # pragma: no cover - corpus dropped mid-walk
            return 0

    def lag(self, node_id: str, corpus: str) -> int:
        truth = self._truth_generation(corpus)
        with self._lock:
            ledger = self._ledgers.get(node_id)
            applied = ledger.applied.get(corpus, 0) if ledger else 0
        return max(0, truth - applied)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The ``/backends`` replication block."""
        with self._lock:
            nodes = {
                node_id: ledger.snapshot()
                for node_id, ledger in sorted(self._ledgers.items())
            }
        return {
            "interval": self.interval,
            "lag_limit": self.lag_limit,
            "nodes": nodes,
        }

    # ------------------------------------------------------------------

    def _ledger(self, node_id: str) -> _NodeLedger:
        with self._lock:
            ledger = self._ledgers.get(node_id)
            if ledger is None:
                ledger = self._ledgers[node_id] = _NodeLedger()
            return ledger

    def _nodes_for(self, corpus: str) -> list[Any]:
        """Every node serving at least one group of ``corpus``, in a
        stable order."""
        seen: dict[str, Any] = {}
        for group in range(self.frontier.groups):
            for node in self.frontier.replicas_for(corpus, group):
                seen.setdefault(node.id, node)
        return [seen[node_id] for node_id in sorted(seen)]
