"""ServerConfig and CorpusSpec validation."""

import pytest

from repro.errors import ReproError
from repro.server import CorpusSpec, ServerConfig


class TestCorpusSpec:
    def test_valid_kinds(self):
        CorpusSpec(name="a", kind="index", path="a.json")
        CorpusSpec(name="b", kind="tagged", path="b.txt")
        CorpusSpec(name="c", kind="source", path="c.src")
        CorpusSpec(name="d", kind="synthetic", path="play")

    def test_unknown_kind(self):
        with pytest.raises(ReproError, match="kind"):
            CorpusSpec(name="a", kind="parquet", path="a")

    def test_unknown_synthetic_generator(self):
        with pytest.raises(ReproError, match="synthetic"):
            CorpusSpec(name="a", kind="synthetic", path="novel")


class TestServerConfig:
    def test_defaults_are_valid(self):
        config = ServerConfig()
        assert config.workers >= 1
        assert config.to_dict()["cache_enabled"] is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"queue_depth": -1},
            {"cache_capacity": 0},
            {"default_deadline": 0.0},
            {"default_deadline": 10.0, "max_deadline": 5.0},
        ],
    )
    def test_invalid_knobs(self, kwargs):
        with pytest.raises(ReproError):
            ServerConfig(**kwargs)

    @pytest.mark.parametrize(
        "name",
        [
            "dispatch_retries",
            "stale_when_degraded",
            "ingest_keep_generations",
            "compaction_small_docs",
            "trace_store_capacity",
            "slo_latency_objective",
            "backend_hedge_quantile",
            "backend_hedge_min_seconds",
            "optimize_default",
        ],
    )
    def test_removed_knobs_are_unknown(self, name):
        # Each was set by no caller; its value is now a constant.
        with pytest.raises(TypeError):
            ServerConfig(**{name: 1})
        assert name not in ServerConfig().to_dict()


class TestBackendTopologyKnobs:
    def test_topology_defaults_disabled(self):
        config = ServerConfig()
        assert config.backend_nodes == 0
        assert config.to_dict()["backend_mode"] == "inprocess"

    def test_valid_topology_roundtrips(self):
        config = ServerConfig(
            backend_nodes=3,
            backend_groups=2,
            backend_replicas=2,
            backend_mode="http",
            backend_hedge_budget=0.25,
        )
        dumped = config.to_dict()
        assert dumped["backend_nodes"] == 3
        assert dumped["backend_replicas"] == 2
        assert dumped["backend_mode"] == "http"
        assert dumped["backend_hedge_budget"] == 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend_mode": "carrier-pigeon"},
            {"backend_nodes": -1},
            {"backend_groups": 0},
            {"backend_replicas": 0},
            {"backend_nodes": 1, "backend_replicas": 2},
            {"replication_interval": 0.0},
            {"replication_lag_limit": 0},
            {"backend_respawn_delay": -1.0},
            {"backend_hedge_budget": -0.5},
            {"backend_respawn_delay": 0.0},
        ],
    )
    def test_invalid_topology_knobs(self, kwargs):
        with pytest.raises(ReproError):
            ServerConfig(**kwargs)
