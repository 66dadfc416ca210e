"""End-to-end sharding: the ShardExecutor facade over an engine's or a
corpus's instance, a service's in-process topology, config, CLI."""

import json
import random
import threading

import pytest

from repro.engine.corpus import Corpus
from repro.engine.session import Engine
from repro.errors import QueryCancelled, ReproError
from repro.server.config import CorpusSpec, ServerConfig
from repro.server.service import QueryService
from repro.shard import ShardExecutor
from repro.workloads.corpora import generate_play


def multi_play_text(seed=5, plays=4, scale=2):
    rng = random.Random(seed)
    return "\n".join(
        generate_play(
            rng,
            acts=scale,
            scenes_per_act=scale,
            speeches_per_scene=2,
            lines_per_speech=2,
        )
        for _ in range(plays)
    )


@pytest.fixture(scope="module")
def engine():
    return Engine.from_tagged_text(multi_play_text())


@pytest.fixture(scope="module")
def sharded(engine):
    # What ``repro query --shards 3`` builds: the facade over the
    # engine's instance, recording into the engine's telemetry.
    executor = ShardExecutor(
        engine.instance, 3, tracer=engine.tracer, metrics=engine.metrics
    )
    yield executor
    executor.close()


class TestEngine:
    def test_query_matches_unsharded(self, sharded, engine):
        for query in (
            "speech containing speaker",
            "(line after speaker) within scene",
            'speech containing "love"',
        ):
            assert list(sharded.run(query)) == list(engine.query(query)), query

    def test_executor_exposed_and_partitioned(self, sharded):
        assert len(sharded.pieces) == 3

    def test_statistics_include_partition_summary(self, sharded):
        summary = sharded.summary()
        assert summary["requested"] == 3
        assert len(summary["segments"]) == 3
        json.dumps(summary)

    def test_unsharded_engine_has_no_summary(self):
        engine = Engine.from_tagged_text(multi_play_text(plays=2))
        assert not hasattr(engine, "shard_executor")
        assert "shards" not in engine.statistics()
        with pytest.raises(TypeError):
            Engine.from_tagged_text(multi_play_text(plays=2), shards=2)

    def test_query_log_records_sharded_queries(self, sharded_service):
        # A read the topology scatters is logged by the engine it read.
        engine = sharded_service._handle("plays").engine
        before = len(engine.query_log.records())
        response = sharded_service.execute(
            "speech containing speaker", corpus="plays", use_cache=False
        )
        assert "fallback" not in response["backend"]
        records = engine.query_log.records()
        assert len(records) == before + 1
        assert records[-1].query == "speech containing speaker"
        assert records[-1].cardinality == response["cardinality"]

    def test_cancel_propagates_through_engine(self, sharded):
        token = threading.Event()
        token.set()
        with pytest.raises(QueryCancelled):
            sharded.run("speech containing speaker", cancel=token)

    def test_shard_metrics_flow_into_engine_telemetry(self, sharded, engine):
        sharded.run("line after speaker")
        counters = engine.telemetry()["metrics"]["counters"]
        assert sum(counters.get("backend_requests_total", {}).values()) > 0

    def test_tracing_produces_shard_spans(self):
        engine = Engine.from_tagged_text(multi_play_text())
        engine.enable_tracing()
        with ShardExecutor(engine.instance, 3, tracer=engine.tracer) as executor:
            executor.run("speech containing speaker")
        root = engine.tracer.last_root
        names = [span.name for span in root.walk()]
        assert "shard.query" in names
        assert "shard.merge" in names
        assert names.count("backend.query") == 3


class TestCorpus:
    def test_corpus_shards_are_document_aligned(self):
        rng = random.Random(9)
        corpus = Corpus()
        for _ in range(6):
            corpus.add(
                generate_play(
                    rng,
                    acts=1,
                    scenes_per_act=2,
                    speeches_per_scene=2,
                    lines_per_speech=2,
                )
            )
        instance = corpus.engine().instance
        documents = instance.region_set("document")
        with ShardExecutor(instance, 3) as executor:
            for piece in executor.pieces:
                for root in piece.instance.forest().roots():
                    assert root in documents


class TestConfig:
    def test_server_config_default_and_validation(self):
        # A service scatters only through its backend topology.
        config = ServerConfig()
        assert config.backend_nodes == 0 and config.backend_groups == 2
        assert "shards" not in config.to_dict()
        assert ServerConfig(backend_groups=4).to_dict()["backend_groups"] == 4
        with pytest.raises(ReproError):
            ServerConfig(backend_groups=0)
        with pytest.raises(TypeError):
            ServerConfig(shards=2)

    def test_corpus_spec_override_and_validation(self):
        spec = CorpusSpec(name="b", kind="synthetic", path="play")
        assert "shards" not in spec.to_dict()
        with pytest.raises(TypeError):
            CorpusSpec(name="a", kind="synthetic", path="play", shards=2)
        with pytest.raises(ReproError):
            CorpusSpec(name="c", kind="synthetic", path="nowhere")


@pytest.fixture(scope="module")
def sharded_service(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("sharded")
    path = workdir / "plays.tagged"
    path.write_text(multi_play_text(), encoding="utf-8")
    spec = CorpusSpec(name="plays", kind="tagged", path=str(path))
    service = QueryService(
        ServerConfig(
            workers=2,
            corpora=(spec,),
            backend_nodes=2,
            backend_groups=3,
            backend_mode="inprocess",
        )
    )
    yield service
    service.close()


class TestService:
    def test_sharded_corpus_answers_queries(self, sharded_service):
        plain = Engine.from_tagged_text(multi_play_text())
        response = sharded_service.execute(
            "speech containing speaker", corpus="plays", use_cache=False
        )
        expected = [
            (r.left, r.right)
            for r in plain.query("speech containing speaker")
        ]
        assert response["regions"] == expected
        assert response["backend"]["groups"] == 3
        assert "fallback" not in response["backend"]

    def test_corpora_info_reports_partition(self, sharded_service):
        (info,) = sharded_service.corpora_info()
        assert "shards" not in info
        backends = sharded_service.backends_info()
        assert backends["groups"] == 3
        assert sorted(backends["placement"]["plays"]) == ["0", "1", "2"]

    def test_shard_metrics_in_service_snapshot(self, sharded_service):
        sharded_service.execute(
            "line after speaker", corpus="plays", use_cache=False
        )
        counters = sharded_service.metrics_snapshot()["metrics"]["counters"]
        assert sum(counters.get("backend_requests_total", {}).values()) > 0

    def test_config_snapshot_reports_shards(self, sharded_service):
        config = sharded_service.healthz()["config"]
        assert "shards" not in config
        assert config["backend_groups"] == 3


class TestCLI:
    def test_query_shards_flag(self, tmp_path, capsys):
        from repro.engine.cli import main

        doc = tmp_path / "plays.tagged"
        doc.write_text(multi_play_text(), encoding="utf-8")
        index = tmp_path / "plays.json"
        assert main(["index", str(doc), "-o", str(index)]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    str(index),
                    "speech containing speaker",
                    "--shards",
                    "3",
                    "--limit",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shards: 3 segment(s)" in out
        assert "shard 0:" in out

    def test_stats_shards_flag(self, tmp_path, capsys):
        from repro.engine.cli import main

        doc = tmp_path / "plays.tagged"
        doc.write_text(multi_play_text(), encoding="utf-8")
        index = tmp_path / "plays.json"
        assert main(["index", str(doc), "-o", str(index)]) == 0
        capsys.readouterr()
        assert (
            main(["stats", str(index), "--telemetry", "--shards", "3"]) == 0
        )
        out = capsys.readouterr().out
        assert "shards: 3 segment(s)" in out

    def test_stats_shards_json(self, tmp_path, capsys):
        from repro.engine.cli import main

        doc = tmp_path / "plays.tagged"
        doc.write_text(multi_play_text(), encoding="utf-8")
        index = tmp_path / "plays.json"
        assert main(["index", str(doc), "-o", str(index)]) == 0
        capsys.readouterr()
        assert main(["stats", str(index), "--shards", "2", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["shards"]["requested"] == 2
