"""The serving layer under failure: corruption recovery, breaker,
health state machine, stale serving and shedding."""

import json
import random
import time

import pytest

from repro.engine.session import Engine
from repro.engine.storage import save_instance
from repro.errors import (
    CorpusUnavailableError,
    CorruptIndexError,
    FaultInjected,
    ServiceUnhealthyError,
    StorageError,
)
from repro.faults import FaultSpec, injected_faults
from repro.obs.metrics import MetricsRegistry
from repro.server import CorpusSpec, QueryService, ServerConfig
from repro.server.health import DEGRADED, HEALTHY, UNHEALTHY, HealthMonitor
from repro.workloads.corpora import generate_play

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=2)


def _indexed_corpus(tmp_path, name="play"):
    """A kind=index corpus with a source fallback on disk."""
    text = generate_play(
        random.Random(5), acts=1, scenes_per_act=2, speeches_per_scene=3
    )
    source = tmp_path / f"{name}.tagged"
    source.write_text(text, encoding="utf-8")
    index = tmp_path / f"{name}.json"
    save_instance(Engine.from_tagged_text(text).instance, index)
    return CorpusSpec(
        name=name,
        kind="index",
        path=str(index),
        source=str(source),
        source_format="tagged",
    )


def _corrupt_file(path):
    raw = bytearray(path.read_bytes())
    for i in range(0, len(raw), 61):
        raw[i] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestCorruptionRecovery:
    def test_corrupt_index_quarantined_and_rebuilt_from_source(self, tmp_path):
        spec = _indexed_corpus(tmp_path)
        _corrupt_file(tmp_path / "play.json")
        service = QueryService(ServerConfig(workers=1, corpora=(spec,)))
        try:
            # The service came up anyway, serving the rebuilt engine.
            response = service.execute("speech dwithin scene", use_cache=False)
            assert response["cardinality"] > 0
            # The damaged file was moved aside and a fresh one saved.
            assert (tmp_path / "play.json.quarantined").exists()
            from repro.engine.storage import load_instance

            load_instance(tmp_path / "play.json")  # now valid again
            counters = service.metrics_snapshot()["metrics"]["counters"]
            assert sum(counters.get("index_rebuilds_total", {}).values()) == 1
        finally:
            service.close()

    def test_corrupt_index_without_source_fails(self, tmp_path):
        spec = _indexed_corpus(tmp_path)
        spec = CorpusSpec(name="play", kind="index", path=spec.path)
        _corrupt_file(tmp_path / "play.json")
        with pytest.raises(CorruptIndexError):
            QueryService(
                ServerConfig(
                    workers=1,
                    corpora=(spec,),
                    retry_base_delay=0.001,
                    retry_max_delay=0.002,
                )
            )

    def test_version_one_index_is_not_quarantined(self, tmp_path):
        # An index of the old JSON format is not corrupt: the service
        # refuses it with the re-index advice and leaves the file alone.
        spec = _indexed_corpus(tmp_path)
        legacy = {"version": 1, "names": [], "sets": {}, "word_index": {"kind": "none"}}
        (tmp_path / "play.json").write_text(json.dumps(legacy), encoding="utf-8")
        with pytest.raises(StorageError, match="re-index") as excinfo:
            QueryService(
                ServerConfig(
                    workers=1,
                    corpora=(spec,),
                    retry_base_delay=0.001,
                    retry_max_delay=0.002,
                )
            )
        assert not isinstance(excinfo.value, CorruptIndexError)
        assert not (tmp_path / "play.json.quarantined").exists()

    def test_transient_load_fault_survived_by_retry(self):
        with injected_faults(
            FaultSpec("index.build", "error", max_fires=1),
            metrics=MetricsRegistry(),
        ):
            service = QueryService(
                ServerConfig(
                    workers=1,
                    corpora=(PLAY,),
                    retry_base_delay=0.001,
                    retry_max_delay=0.002,
                )
            )
        try:
            assert service.execute("speech", use_cache=False)["cardinality"] > 0
            counters = service.metrics_snapshot()["metrics"]["counters"]
            assert sum(counters.get("retry_attempts_total", {}).values()) >= 1
        finally:
            service.close()


class TestCircuitBreaker:
    def make_service(self):
        return QueryService(
            ServerConfig(
                workers=1,
                corpora=(PLAY,),
                breaker_threshold=2,
                breaker_reset=0.05,
                retry_attempts=1,
                retry_base_delay=0.001,
            )
        )

    def test_reload_failures_trip_breaker_then_recover(self):
        service = self.make_service()
        try:
            breaker = service._handle("play").breaker
            with injected_faults(
                FaultSpec("index.build", "error"), metrics=MetricsRegistry()
            ):
                for _ in range(2):
                    with pytest.raises(FaultInjected):
                        service.reload_corpus("play")
                assert breaker.state == "open"
                # Open breaker: reloads fail fast with a retry hint...
                with pytest.raises(CorpusUnavailableError) as excinfo:
                    service.reload_corpus("play")
                assert excinfo.value.retry_after > 0
                assert excinfo.value.code == "corpus_unavailable"
                # ...and the service is at least degraded (pressure).
                assert service.health.state == DEGRADED
                # Queries still serve the last good engine throughout.
                assert (
                    service.execute("speech", use_cache=False)["cardinality"]
                    > 0
                )
            # Faults cleared: the half-open probe closes the breaker.
            time.sleep(0.06)
            result = service.reload_corpus("play")
            assert result["generation"] == 2
            assert breaker.state == "closed"
            assert breaker.trips == 1
            assert service.health.state == HEALTHY
        finally:
            service.close()


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestHealthMonitor:
    def make(self, **kwargs):
        clock = _Clock()
        monitor = HealthMonitor(
            window_seconds=kwargs.pop("window_seconds", 10.0),
            degraded_threshold=0.2,
            unhealthy_threshold=0.5,
            min_samples=4,
            probe_interval=2,
            clock=clock,
            **kwargs,
        )
        return monitor, clock

    def test_starts_healthy_and_needs_min_samples(self):
        monitor, _ = self.make()
        monitor.record_failure()
        monitor.record_failure()
        # Two failures, but below min_samples: still healthy.
        assert monitor.state == HEALTHY

    def test_degrades_then_unhealthy_then_heals_with_time(self):
        monitor, clock = self.make(window_seconds=5.0)
        for _ in range(3):
            monitor.record_success()
        monitor.record_failure()  # 1/4 = 25% >= degraded
        assert monitor.state == DEGRADED
        monitor.record_failure()
        monitor.record_failure()  # 3/6 = 50% >= unhealthy
        assert monitor.state == UNHEALTHY
        # The window slides past the failures: healthy again.
        clock.now = 6.0
        assert monitor.state == HEALTHY
        assert monitor.states_seen() == [HEALTHY, DEGRADED, UNHEALTHY, HEALTHY]

    def test_rolling_failure_count_is_the_bucket_scan(self):
        # The error rate is kept as outcomes enter and buckets expire,
        # not re-counted per request; it must say what a scan over the
        # outcomes in live buckets (window / 60 wide) would.
        import random

        rng = random.Random(18)
        monitor, clock = self.make(window_seconds=3.0)
        width = 3.0 / 60
        outcomes = []
        for _ in range(400):
            clock.now += rng.random()
            failed = rng.random() < 0.4
            (monitor.record_failure if failed else monitor.record_success)()
            outcomes.append((clock.now, failed))
            horizon = clock.now // width - 60
            live = [bad for at, bad in outcomes if at // width >= horizon]
            exact = [bad for at, bad in outcomes if at >= clock.now - 3.0]
            snap = monitor.snapshot()
            assert snap["window_samples"] == len(live)
            assert snap["error_rate"] == round(sum(live) / len(live), 4)
            # Never early, and late by less than one bucket.
            assert live[len(live) - len(exact):] == exact
            assert all(
                at >= clock.now - 3.0 - width
                for at, _ in outcomes[len(outcomes) - len(live):]
            )
        clock.now += 10.0
        snap = monitor.snapshot()
        assert (snap["error_rate"], snap["window_samples"]) == (0.0, 0)

    def test_pressure_forces_degraded_without_samples(self):
        monitor, _ = self.make()
        monitor.set_pressure("breaker:play", True)
        assert monitor.state == DEGRADED
        monitor.set_pressure("breaker:play", False)
        assert monitor.state == HEALTHY

    def test_unhealthy_severity_pressure_sheds(self):
        monitor, _ = self.make()
        monitor.set_pressure("slo:availability", True, severity=UNHEALTHY)
        assert monitor.state == UNHEALTHY
        assert any(monitor.should_shed() for _ in range(3))
        monitor.set_pressure("slo:availability", False)
        assert monitor.state == HEALTHY

    def test_strongest_pressure_wins(self):
        monitor, _ = self.make()
        monitor.set_pressure("breaker:play", True)  # degraded severity
        monitor.set_pressure("slo:availability", True, severity=UNHEALTHY)
        assert monitor.state == UNHEALTHY
        monitor.set_pressure("slo:availability", False)
        assert monitor.state == DEGRADED

    def test_pressure_severity_validated(self):
        monitor, _ = self.make()
        with pytest.raises(ValueError):
            monitor.set_pressure("x", True, severity="on-fire")

    def test_shedding_only_when_unhealthy_with_probe_trickle(self):
        monitor, _ = self.make()
        assert not monitor.should_shed()
        for _ in range(2):
            monitor.record_success()
        for _ in range(4):
            monitor.record_failure()
        assert monitor.state == UNHEALTHY
        decisions = [monitor.should_shed() for _ in range(4)]
        assert True in decisions  # load is shed...
        assert False in decisions  # ...but probes get through


class TestDegradedServing:
    @pytest.fixture
    def service(self):
        svc = QueryService(
            ServerConfig(workers=2, queue_depth=4, corpora=(PLAY,))
        )
        yield svc
        svc.close()

    def test_stale_entry_served_when_cache_faults_while_degraded(
        self, service
    ):
        warm = service.execute("speech dwithin scene")
        assert warm["cached"] is False
        service.health.set_pressure("test", True)
        try:
            with injected_faults(
                FaultSpec("cache.get", "error"), metrics=MetricsRegistry()
            ):
                response = service.execute("speech dwithin scene")
            assert response["stale"] is True
            assert response["cached"] is True
            assert response["regions"] == warm["regions"]
            counters = service.metrics_snapshot()["metrics"]["counters"]
            assert (
                sum(counters.get("server_stale_served_total", {}).values())
                == 1
            )
        finally:
            service.health.set_pressure("test", False)

    def test_unhealthy_service_sheds_with_503(self):
        service = QueryService(
            ServerConfig(
                workers=1,
                corpora=(PLAY,),
                health_min_samples=4,
                unhealthy_threshold=0.5,
                probe_interval=2,
            )
        )
        try:
            for _ in range(6):
                service.health.record_failure()
            assert service.health.state == UNHEALTHY
            outcomes = []
            for _ in range(4):
                try:
                    service.execute("speech", use_cache=False)
                    outcomes.append("served")
                except ServiceUnhealthyError as exc:
                    assert exc.retry_after > 0
                    outcomes.append("shed")
            assert "shed" in outcomes
            assert "served" in outcomes  # the probe trickle
            counters = service.metrics_snapshot()["metrics"]["counters"]
            assert sum(counters.get("server_shed_total", {}).values()) >= 1
        finally:
            service.close()


class TestHealthz:
    def test_healthz_reports_resilience_state(self):
        service = QueryService(ServerConfig(workers=1, corpora=(PLAY,)))
        try:
            health = service.healthz()
            assert health["status"] == "healthy"
            assert health["health"]["state"] == "healthy"
            assert "play" in health["breakers"]
            assert health["breakers"]["play"]["state"] == "closed"
            assert health["faults"] is None
            with injected_faults(
                FaultSpec("cache.get", "error"), metrics=MetricsRegistry()
            ):
                assert service.healthz()["faults"]["armed"]
        finally:
            service.close()
