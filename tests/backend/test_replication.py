"""ReplicationCoordinator: shipping, snapshot repair, anti-entropy, and lag."""

import threading
from contextlib import contextmanager
from types import SimpleNamespace

from repro.backend.replication import ReplicationCoordinator
from repro.errors import BackendError
from repro.faults.registry import (
    FaultRegistry,
    FaultSpec,
    activate,
    deactivate,
)
from repro.ingest.wal import wal_checksum
from repro.obs.metrics import MetricsRegistry


class _FakeBackend:
    """A scriptable replica: records every call, answers per the knobs."""

    def __init__(self):
        self.applies: list[dict] = []
        self.snapshots: list[tuple[str, dict, int]] = []
        self.applied_generation = 0
        self.apply_status = "applied"
        self.checksums: dict[int, str] = {}
        self.down = False

    def replicate_apply(self, corpus, seq, ops, generation, checksum):
        if self.down:
            raise BackendError("connection refused")
        record = {
            "corpus": corpus,
            "seq": int(seq),
            "generation": int(generation),
            "ops": [dict(op) for op in ops],
        }
        if wal_checksum(record) != checksum:
            return {
                "status": "checksum_mismatch",
                "applied": self.applied_generation,
            }
        self.applies.append(record)
        if self.apply_status == "applied":
            self.applied_generation = int(generation)
        return {"status": self.apply_status, "applied": self.applied_generation}

    def replicate_snapshot(self, corpus, state, generation):
        if self.down:
            raise BackendError("connection refused")
        self.snapshots.append((corpus, dict(state), int(generation)))
        self.applied_generation = int(generation)
        return {"status": "applied", "applied": self.applied_generation}

    def replicate_status(self, corpus, groups):
        if self.down:
            raise BackendError("connection refused")
        return {
            "corpus": corpus,
            "applied": self.applied_generation,
            "checksums": {
                str(g): self.checksums.get(g, f"sum-{g}")
                for g in range(groups)
            },
        }


def _rig(nodes=2, groups=2, truth_generation=1, truth_sums=None):
    """A coordinator over fake nodes; returns (coordinator, backends)."""
    backends = [_FakeBackend() for _ in range(nodes)]
    ring_nodes = [
        SimpleNamespace(id=f"b{i}", backend=backend)
        for i, backend in enumerate(backends)
    ]
    frontier = SimpleNamespace(
        nodes=ring_nodes,
        groups=groups,
        replicas=nodes,
        replicas_for=lambda corpus, group: ring_nodes,
    )
    truth = {"generation": truth_generation}
    sums = truth_sums if truth_sums is not None else {
        g: f"sum-{g}" for g in range(groups)
    }
    writer = threading.Lock()

    @contextmanager
    def state_provider(corpus):
        with writer:
            yield truth["generation"], lambda: {"through_batch": 0, "docs": []}

    coordinator = ReplicationCoordinator(
        frontier,
        corpora=lambda: ("play",),
        state_provider=state_provider,
        checksum_provider=lambda corpus: (truth["generation"], dict(sums)),
        metrics=MetricsRegistry(),
        generation_provider=lambda corpus: truth["generation"],
    )
    coordinator._truth = truth  # test handle to move the frontier forward
    coordinator._writer = writer  # the corpus writer lock commits ship under
    return coordinator, backends


OPS = [{"op": "append", "id": "d1", "text": "<speech>x</speech>"}]


class TestShip:
    def test_ships_to_every_node_serving_the_corpus(self):
        coordinator, backends = _rig()
        coordinator._truth["generation"] = 2
        shipped = coordinator.ship("play", seq=1, ops=OPS, generation=2)
        assert shipped == {"nodes": 2, "applied": 2, "failed": 0}
        for backend in backends:
            assert backend.applies[0]["generation"] == 2
            assert backend.applies[0]["ops"] == OPS
        ledgers = coordinator.snapshot()["nodes"]
        assert ledgers["b0"]["applied"] == {"play": 2}
        assert ledgers["b1"]["applied"] == {"play": 2}

    def test_one_dead_node_never_fails_the_ship(self):
        coordinator, backends = _rig()
        backends[1].down = True
        shipped = coordinator.ship("play", seq=1, ops=OPS, generation=2)
        assert shipped == {"nodes": 2, "applied": 1, "failed": 1}
        ledger = coordinator.snapshot()["nodes"]["b1"]
        assert ledger["reachable"] is False
        assert "refused" in ledger["last_error"]

    def test_out_of_order_answer_counts_as_failed(self):
        coordinator, backends = _rig()
        backends[0].apply_status = "out_of_order"
        shipped = coordinator.ship("play", seq=3, ops=OPS, generation=4)
        assert shipped["failed"] == 1
        assert shipped["applied"] == 1

    def test_stale_answer_counts_as_applied(self):
        # A replica that already has the batch (e.g. a re-ship after a
        # partial failure) is fine, not a failure.
        coordinator, backends = _rig()
        backends[0].apply_status = "stale"
        shipped = coordinator.ship("play", seq=1, ops=OPS, generation=2)
        assert shipped == {"nodes": 2, "applied": 2, "failed": 0}

    def test_ship_fault_point_hits_one_copy_not_the_commit(self):
        coordinator, backends = _rig()
        registry = FaultRegistry(seed=3)
        registry.arm(
            FaultSpec("replication.ship", "error", probability=1.0, max_fires=1)
        )
        activate(registry)
        try:
            shipped = coordinator.ship("play", seq=1, ops=OPS, generation=2)
        finally:
            deactivate()
        # The first node's copy was dropped; the second applied.
        assert shipped == {"nodes": 2, "applied": 1, "failed": 1}
        assert len(backends[0].applies) + len(backends[1].applies) == 1

    def test_corrupted_wire_copy_is_rejected_by_checksum(self):
        coordinator, backends = _rig()
        registry = FaultRegistry(seed=3)
        registry.arm(
            FaultSpec(
                "replication.ship", "corrupt", probability=1.0, max_fires=1
            )
        )
        activate(registry)
        try:
            shipped = coordinator.ship("play", seq=1, ops=OPS, generation=2)
        finally:
            deactivate()
        assert shipped["failed"] == 1
        # Whatever survived parsing was checksum-rejected, never applied.
        applied = backends[0].applies + backends[1].applies
        assert all(record["ops"] == OPS for record in applied)


class TestCatchUp:
    def test_lagging_node_is_snapshot_repaired(self):
        coordinator, backends = _rig()
        coordinator._truth["generation"] = 2
        coordinator.ship("play", seq=1, ops=OPS, generation=2)
        backends[1].down = True  # misses generations 3 and 4
        for generation in (3, 4):
            coordinator._truth["generation"] = generation
            coordinator.ship(
                "play", seq=generation - 1, ops=OPS, generation=generation
            )
        backends[1].down = False
        sweep = coordinator.sweep()
        assert sweep["corpora"]["play"] == {"b0": "current", "b1": "repaired"}
        assert [r["generation"] for r in backends[1].applies] == [2]
        assert [s[2] for s in backends[1].snapshots] == [4]
        assert coordinator.snapshot()["nodes"]["b1"]["catchups"] == 1
        assert coordinator.snapshot()["nodes"]["b0"]["catchups"] == 0

    def test_node_that_missed_every_ship_is_snapshot_repaired(self):
        coordinator, backends = _rig()
        backends[1].down = True
        for generation in (2, 3, 4, 5):
            coordinator._truth["generation"] = generation
            coordinator.ship(
                "play", seq=generation - 1, ops=OPS, generation=generation
            )
        backends[1].down = False
        sweep = coordinator.sweep()
        assert sweep["corpora"]["play"]["b1"] == "repaired"
        assert len(backends[1].snapshots) == 1
        assert backends[1].snapshots[0][2] == 5
        assert coordinator.snapshot()["nodes"]["b1"]["applied"] == {"play": 5}

    def test_blank_node_is_snapshot_repaired(self):
        coordinator, backends = _rig(truth_generation=7)
        sweep = coordinator.sweep()
        assert sweep["corpora"]["play"]["b0"] == "repaired"
        assert len(backends[0].snapshots) == 1

    def test_replica_ahead_of_the_frontier_is_reset(self):
        # The frontier restarted and its generation counter rewound: a
        # replica remembering a higher number must be snapshot-reset,
        # never trusted.
        coordinator, backends = _rig(truth_generation=2)
        backends[0].applied_generation = 9
        backends[1].applied_generation = 2
        backends[1].checksums = {0: "sum-0", 1: "sum-1"}
        sweep = coordinator.sweep()
        assert sweep["corpora"]["play"]["b0"] == "repaired"
        assert backends[0].snapshots[0][2] == 2

    def test_a_ship_that_lands_after_the_audit_needs_no_repair(self):
        # The audit races the ship of a generation already installed: by
        # the time the repair holds the writer lock the node is current.
        coordinator, backends = _rig(truth_generation=2)
        backends[0].applied_generation = 1
        backends[1].applied_generation = 2
        status = backends[0].replicate_status

        def status_then_ship_lands(corpus, groups):
            answer = status(corpus, groups)
            backends[0].applied_generation = 2
            return answer

        backends[0].replicate_status = status_then_ship_lands
        sweep = coordinator.sweep()
        assert sweep["corpora"]["play"]["b0"] == "current"
        assert backends[0].snapshots == []
        assert coordinator.snapshot()["nodes"]["b0"]["applied"] == {"play": 2}

    def test_a_snapshot_never_rolls_back_a_later_ship(self):
        # A commit of generation 3 that arrives while the repair at 2 is
        # in flight must ship after it, not before: a snapshot at 2
        # landing on a node that acked 3 would refuse every read at 3.
        coordinator, backends = _rig(nodes=1, truth_generation=2)
        node = backends[0]
        snapshot = node.replicate_snapshot
        committer = []

        def commit_3():
            with coordinator._writer:
                coordinator._truth["generation"] = 3
                coordinator.ship("play", seq=2, ops=OPS, generation=3)

        def snapshot_racing_a_commit(corpus, state, generation):
            committer.append(threading.Thread(target=commit_3))
            committer[0].start()
            committer[0].join(timeout=0.2)
            return snapshot(corpus, state, generation)

        node.replicate_snapshot = snapshot_racing_a_commit
        assert coordinator.sweep()["corpora"]["play"]["b0"] == "repaired"
        committer[0].join(timeout=5.0)
        assert [s[2] for s in node.snapshots] == [2]
        assert [r["generation"] for r in node.applies] == [3]
        assert node.applied_generation == 3

    def test_unreachable_node_is_reported_not_repaired(self):
        coordinator, backends = _rig()
        backends[0].down = True
        sweep = coordinator.sweep()
        assert sweep["corpora"]["play"]["b0"] == "unreachable"


class TestAntiEntropy:
    def test_current_matching_replica_is_left_alone(self):
        coordinator, backends = _rig(truth_generation=1)
        for backend in backends:
            backend.applied_generation = 1
            backend.checksums = {0: "sum-0", 1: "sum-1"}
        sweep = coordinator.sweep()
        assert sweep["corpora"]["play"] == {"b0": "current", "b1": "current"}
        assert sweep["repaired"] == 0
        assert backends[0].snapshots == backends[1].snapshots == []

    def test_divergence_at_the_right_generation_is_repaired(self):
        coordinator, backends = _rig(truth_generation=1)
        for backend in backends:
            backend.applied_generation = 1
            backend.checksums = {0: "sum-0", 1: "sum-1"}
        backends[1].checksums[1] = "garbage"
        sweep = coordinator.sweep()
        assert sweep["corpora"]["play"]["b0"] == "current"
        assert sweep["corpora"]["play"]["b1"] == "repaired"
        assert len(backends[1].snapshots) == 1
        assert "divergence" not in (
            coordinator.snapshot()["nodes"]["b0"]["last_error"] or ""
        )


class TestLag:
    def test_lag_is_truth_minus_applied(self):
        coordinator, _ = _rig(truth_generation=5)
        coordinator._ledger("b0").applied["play"] = 3
        assert coordinator.lag("b0", "play") == 2
        assert coordinator.lag("b1", "play") == 5

    def test_unknown_node_lags_by_the_full_truth(self):
        coordinator, _ = _rig(truth_generation=3)
        assert coordinator.lag("never-seen", "play") == 3


class TestLifecycle:
    def test_background_thread_sweeps_and_closes(self):
        import time

        coordinator, backends = _rig(truth_generation=2)
        coordinator.interval = 0.01
        coordinator.start()
        coordinator.start()  # idempotent
        try:
            deadline = time.monotonic() + 2.0
            while not backends[0].snapshots and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            coordinator.close()
        assert backends[0].snapshots  # the sweep repaired the blank node

    def test_snapshot_shape(self):
        coordinator, _ = _rig()
        coordinator.ship("play", seq=1, ops=OPS, generation=2)
        snapshot = coordinator.snapshot()
        assert set(snapshot) == {"interval", "lag_limit", "nodes"}
        assert set(snapshot["nodes"]) == {"b0", "b1"}
        assert snapshot["lag_limit"] == coordinator.lag_limit
