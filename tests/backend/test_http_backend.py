"""The subprocess topology end to end: supervisor spawn, kill, failover,
respawn, breaker recovery.  One flow test — subprocess spawns are the
expensive part, so the assertions share a single service."""

from time import monotonic, sleep

import pytest

from repro.faults.retry import CircuitBreaker
from repro.server import CorpusSpec, QueryService, ServerConfig

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=1)

QUERY = "speech dwithin scene"


@pytest.fixture(scope="module")
def service():
    svc = QueryService(
        ServerConfig(
            workers=2,
            queue_depth=8,
            cache_enabled=False,
            corpora=(PLAY,),
            backend_nodes=2,
            backend_groups=2,
            backend_replicas=2,
            backend_mode="http",
            breaker_threshold=2,
            breaker_reset=0.5,
            backend_respawn_delay=0.3,
        )
    )
    yield svc
    svc.close()


def _expected(service):
    engine = service._handle("play").engine
    return [(r.left, r.right) for r in engine.query(QUERY)]


def test_kill_failover_respawn_recovery(service):
    expected = _expected(service)

    # Healthy topology answers off the distributed path.
    response = service.execute(QUERY, use_cache=False)
    assert response["regions"] == expected
    assert response["backend"]["mode"] == "http"
    assert response["backend"]["degraded"] is False

    # SIGKILL the primary replica of group 0.  Every query must still
    # be correct — the surviving replica absorbs the load.
    victim = service.frontier.replicas_for("play", 0)[0].id
    survivor = next(
        node.id for node in service.frontier.nodes if node.id != victim
    )
    service.supervisor.kill(victim)
    saw_failover = False
    for _ in range(6):
        response = service.execute(QUERY, use_cache=False)
        assert response["regions"] == expected
        backend = response["backend"]
        if backend.get("failovers", 0) or backend.get("fallback"):
            saw_failover = True
    assert saw_failover

    # The supervisor respawns the victim on its old port.
    deadline = monotonic() + 15.0
    while service.supervisor.respawns(victim) < 1 and monotonic() < deadline:
        sleep(0.1)
    assert service.supervisor.respawns(victim) >= 1
    processes = {p["node"]: p for p in service.supervisor.describe()}
    assert processes[victim]["alive"] is True

    # Probe traffic walks the victim's breaker back to closed, and the
    # topology serves whole again — including the respawned node.
    victim_node = next(
        node for node in service.frontier.nodes if node.id == victim
    )
    deadline = monotonic() + 15.0
    while (
        victim_node.breaker.state != CircuitBreaker.CLOSED
        and monotonic() < deadline
    ):
        service.execute(QUERY, use_cache=False)
        sleep(0.1)
    assert victim_node.breaker.state == CircuitBreaker.CLOSED
    response = service.execute(QUERY, use_cache=False)
    assert response["regions"] == expected
    assert response["backend"]["degraded"] is False
    assert survivor in {node.id for node in service.frontier.nodes}


def test_backends_info_reports_processes(service):
    info = service.backends_info()
    assert info["enabled"] is True
    assert info["mode"] == "http"
    assert len(info["processes"]) == 2
    for process in info["processes"]:
        assert process["alive"] is True
        assert process["pid"]
