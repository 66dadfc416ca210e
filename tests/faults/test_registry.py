"""The fault-injection registry: specs, determinism, modes, scoping."""

import pytest

from repro.errors import FaultInjected, ReproError, StorageError
from repro.faults import (
    FaultRegistry,
    FaultSpec,
    active,
    injected_faults,
)
from repro.faults import registry as registry_module
from repro.obs.metrics import MetricsRegistry


class TestFaultSpec:
    def test_unknown_point_rejected(self):
        with pytest.raises(ReproError, match="unknown fault point"):
            FaultSpec("bogus.point")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError, match="unknown fault mode"):
            FaultSpec("storage.read", "explode")

    def test_probability_bounds(self):
        with pytest.raises(ReproError, match="probability"):
            FaultSpec("storage.read", probability=1.5)
        with pytest.raises(ReproError, match="probability"):
            FaultSpec("storage.read", probability=-0.1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ReproError, match="latency"):
            FaultSpec("storage.read", "latency", latency=-1.0)


class TestFire:
    def test_error_mode_raises_typed_fault(self):
        registry = FaultRegistry(seed=1, metrics=MetricsRegistry())
        registry.arm(FaultSpec("storage.read", "error"))
        with pytest.raises(FaultInjected) as excinfo:
            registry.fire("storage.read")
        assert excinfo.value.code == "fault_injected"
        assert excinfo.value.point == "storage.read"

    def test_custom_error_type(self):
        registry = FaultRegistry(seed=1, metrics=MetricsRegistry())
        registry.arm(FaultSpec("storage.read", "error", error=StorageError))
        with pytest.raises(StorageError):
            registry.fire("storage.read")

    def test_corrupt_mode_flips_bytes(self):
        registry = FaultRegistry(seed=1, metrics=MetricsRegistry())
        registry.arm(FaultSpec("storage.read", "corrupt"))
        data = b"x" * 100
        mangled = registry.fire("storage.read", data)
        assert mangled != data
        assert len(mangled) == len(data)

    def test_unarmed_point_passes_data_through(self):
        registry = FaultRegistry(seed=1, metrics=MetricsRegistry())
        registry.arm(FaultSpec("storage.read", "error"))
        assert registry.fire("cache.get", b"payload") == b"payload"

    def test_max_fires_budget(self):
        registry = FaultRegistry(seed=1, metrics=MetricsRegistry())
        registry.arm(FaultSpec("cache.get", "error", max_fires=2))
        for _ in range(2):
            with pytest.raises(FaultInjected):
                registry.fire("cache.get")
        # Budget exhausted: the point goes quiet.
        for _ in range(10):
            registry.fire("cache.get")
        assert registry.fires("cache.get") == 2

    def test_seed_determinism(self):
        def outcomes(seed: int) -> list[bool]:
            registry = FaultRegistry(seed=seed, metrics=MetricsRegistry())
            registry.arm(FaultSpec("evaluator.step", "error", probability=0.3))
            results = []
            for _ in range(200):
                try:
                    registry.fire("evaluator.step")
                    results.append(False)
                except FaultInjected:
                    results.append(True)
            return results

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)

    def test_probability_roughly_respected(self):
        registry = FaultRegistry(seed=3, metrics=MetricsRegistry())
        registry.arm(FaultSpec("evaluator.step", "error", probability=0.25))
        hits = 0
        for _ in range(1000):
            try:
                registry.fire("evaluator.step")
            except FaultInjected:
                hits += 1
        assert 150 < hits < 350

    def test_fires_counted_per_point_and_mode(self):
        metrics = MetricsRegistry()
        registry = FaultRegistry(seed=1, metrics=metrics)
        registry.arm(FaultSpec("storage.read", "corrupt"))
        registry.arm(FaultSpec("backend.rpc", "error"))
        registry.fire("storage.read", b"abc")
        with pytest.raises(FaultInjected):
            registry.fire("backend.rpc")
        assert registry.fires() == 2
        assert registry.fires(point="storage.read") == 1
        assert registry.fires(mode="error") == 1
        counted = metrics.counter("fault_injections_total").snapshot()
        assert sum(counted.values()) == 2

    def test_snapshot_lists_armed_and_fired(self):
        registry = FaultRegistry(seed=5, metrics=MetricsRegistry())
        registry.arm(FaultSpec("cache.get", "error", max_fires=1))
        with pytest.raises(FaultInjected):
            registry.fire("cache.get")
        snapshot = registry.snapshot()
        assert snapshot["seed"] == 5
        assert snapshot["armed"][0]["point"] == "cache.get"
        assert snapshot["armed"][0]["fires"] == 1
        assert snapshot["fires"] == {"cache.get:error": 1}

    def test_disarm_by_point(self):
        registry = FaultRegistry(seed=1, metrics=MetricsRegistry())
        registry.arm(FaultSpec("cache.get", "error"))
        registry.arm(FaultSpec("storage.read", "error"))
        registry.disarm("cache.get")
        registry.fire("cache.get")  # no longer armed
        with pytest.raises(FaultInjected):
            registry.fire("storage.read")


class TestScoping:
    def test_inactive_by_default(self):
        assert active() is None
        assert registry_module.fire("storage.read", b"data") == b"data"

    def test_injected_faults_context_manager(self):
        with injected_faults(
            FaultSpec("storage.read", "error"), metrics=MetricsRegistry()
        ) as registry:
            assert active() is registry
            with pytest.raises(FaultInjected):
                registry_module.fire("storage.read")
        assert active() is None
        registry_module.fire("storage.read")  # quiet again

    def test_context_manager_deactivates_on_error(self):
        with pytest.raises(RuntimeError):
            with injected_faults(metrics=MetricsRegistry()):
                raise RuntimeError("boom")
        assert active() is None
