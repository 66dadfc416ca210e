"""QueryService with an in-process backend topology: the distributed
path must answer exactly like local evaluation, annotate responses, and
degrade — not fail — when every replica of a group is gone."""

import pytest

from repro.server import CorpusSpec, QueryService, ServerConfig

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=2)


@pytest.fixture(scope="module")
def service():
    svc = QueryService(
        ServerConfig(
            workers=2,
            queue_depth=8,
            cache_enabled=False,
            corpora=(PLAY,),
            backend_nodes=3,
            backend_groups=2,
            backend_replicas=2,
            backend_mode="inprocess",
        )
    )
    yield svc
    svc.close()


class TestBackendQueryPath:
    def test_matches_local_engine(self, service):
        engine = service._handle("play").engine
        for query in (
            "speech dwithin scene",
            'speech containing (speaker @ "ROMEO")',
            'bi(scene, speaker @ "ROMEO", speaker @ "JULIET")',
        ):
            expected = [(r.left, r.right) for r in engine.query(query)]
            response = service.execute(query, use_cache=False)
            assert response["regions"] == expected

    def test_response_carries_backend_info(self, service):
        response = service.execute("speech dwithin scene", use_cache=False)
        backend = response["backend"]
        assert backend["mode"] == "inprocess"
        assert backend["groups"] == 2
        assert backend["replicas"] == 2
        assert backend["degraded"] is False
        assert backend["nodes"]

    def test_backends_info_endpoint_shape(self, service):
        info = service.backends_info()
        assert info["enabled"] is True
        assert info["mode"] == "inprocess"
        assert len(info["nodes"]) == 3
        placement = info["placement"]["play"]
        assert set(placement) == {"0", "1"}

    def test_failover_is_invisible_to_the_client(self, service):
        engine = service._handle("play").engine
        victim = service.frontier.replicas_for("play", 0)[0]
        victim.backend.fail_requests = 10
        try:
            response = service.execute("speech dwithin scene", use_cache=False)
        finally:
            victim.backend.fail_requests = 0
        expected = [
            (r.left, r.right) for r in engine.query("speech dwithin scene")
        ]
        assert response["regions"] == expected
        assert response["backend"]["degraded"] is False
        assert response["backend"]["failovers"] >= 1


class TestDegradedFallback:
    def test_total_backend_loss_degrades_but_stays_correct(self):
        svc = QueryService(
            ServerConfig(
                workers=2,
                queue_depth=8,
                cache_enabled=False,
                corpora=(PLAY,),
                backend_nodes=2,
                backend_groups=2,
                backend_replicas=2,
                backend_mode="inprocess",
                breaker_threshold=100,  # keep failing, never skip
            )
        )
        try:
            engine = svc._handle("play").engine
            for node in svc.frontier.nodes:
                node.backend.fail_requests = 1000
            response = svc.execute("speech dwithin scene", use_cache=False)
            expected = [
                (r.left, r.right) for r in engine.query("speech dwithin scene")
            ]
            assert response["regions"] == expected
            backend = response["backend"]
            assert backend["fallback"] == "unavailable"
            assert backend["degraded"] is True
        finally:
            svc.close()

    def test_fallback_metric_incremented(self):
        from repro.obs.metrics import FRONTIER_FALLBACK_TOTAL

        svc = QueryService(
            ServerConfig(
                workers=2,
                queue_depth=8,
                cache_enabled=False,
                corpora=(PLAY,),
                backend_nodes=2,
                backend_groups=2,
                backend_replicas=2,
                backend_mode="inprocess",
            )
        )
        try:
            for node in svc.frontier.nodes:
                node.backend.fail_requests = 1000
            svc.execute("speech dwithin scene", use_cache=False)
            fallback = svc.telemetry.metrics.counter(FRONTIER_FALLBACK_TOTAL)
            assert fallback.value(reason="unavailable") == 1
        finally:
            svc.close()
