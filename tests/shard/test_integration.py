"""End-to-end sharding: Engine, Corpus, QueryService, config, CLI."""

import json
import random
import threading

import pytest

from repro.engine.corpus import Corpus
from repro.engine.session import Engine
from repro.errors import QueryCancelled, ReproError
from repro.server.config import CorpusSpec, ServerConfig
from repro.server.service import QueryService
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
def sharded_engine():
    engine = Engine.from_tagged_text(multi_play_text(), shards=3)
    yield engine
    engine.close()


class TestEngine:
    def test_query_matches_unsharded(self, sharded_engine):
        plain = Engine.from_tagged_text(multi_play_text())
        for query in (
            "speech containing speaker",
            "(line after speaker) within scene",
            'speech containing "love"',
        ):
            assert list(sharded_engine.query(query)) == list(
                plain.query(query)
            ), query

    def test_executor_exposed_and_partitioned(self, sharded_engine):
        executor = sharded_engine.shard_executor
        assert executor is not None
        assert len(executor.partition) == 3

    def test_statistics_include_partition_summary(self, sharded_engine):
        stats = sharded_engine.statistics()
        assert "shards" in stats
        assert len(stats["shards"]["segments"]) == 3
        json.dumps(stats["shards"])

    def test_unsharded_engine_has_no_summary(self):
        engine = Engine.from_tagged_text(multi_play_text(plays=2))
        assert engine.shard_executor is None
        assert "shards" not in engine.statistics()

    def test_query_log_records_sharded_queries(self, sharded_engine):
        before = len(list(sharded_engine.query_log))
        sharded_engine.query("speech containing speaker")
        assert len(list(sharded_engine.query_log)) == before + 1

    def test_cancel_propagates_through_engine(self, sharded_engine):
        token = threading.Event()
        token.set()
        with pytest.raises(QueryCancelled):
            sharded_engine.query("speech containing speaker", cancel=token)

    def test_shard_metrics_flow_into_engine_telemetry(self, sharded_engine):
        sharded_engine.query("line after speaker")
        counters = sharded_engine.telemetry()["metrics"]["counters"]
        assert sum(counters.get("backend_requests_total", {}).values()) > 0

    def test_tracing_produces_shard_spans(self):
        engine = Engine.from_tagged_text(multi_play_text(), shards=3)
        try:
            engine.enable_tracing()
            engine.query("speech containing speaker")
            root = engine.tracer.last_root
            names = [span.name for span in root.walk()]
            assert "shard.query" in names
            assert "shard.merge" in names
            assert names.count("backend.query") == 3
        finally:
            engine.close()


class TestCorpus:
    def test_corpus_shards_are_document_aligned(self):
        rng = random.Random(9)
        corpus = Corpus(shards=3)
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
        engine = corpus.engine()
        try:
            partition = engine.shard_executor.partition
            documents = engine.instance.region_set("document")
            for segment in partition.segments:
                for root in segment.roots:
                    assert root in documents
        finally:
            engine.close()


class TestConfig:
    def test_server_config_default_and_validation(self):
        assert ServerConfig().shards == 1
        assert ServerConfig(shards=4).to_dict()["shards"] == 4
        with pytest.raises(ReproError):
            ServerConfig(shards=0)

    def test_corpus_spec_override_and_validation(self):
        spec = CorpusSpec(name="a", kind="synthetic", path="play", shards=2)
        assert spec.to_dict()["shards"] == 2
        assert "shards" not in CorpusSpec(
            name="b", kind="synthetic", path="play"
        ).to_dict()
        with pytest.raises(ReproError):
            CorpusSpec(name="c", kind="synthetic", path="play", shards=0)


@pytest.fixture(scope="module")
def sharded_service(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("sharded")
    path = workdir / "plays.tagged"
    path.write_text(multi_play_text(), encoding="utf-8")
    spec = CorpusSpec(name="plays", kind="tagged", path=str(path), shards=3)
    service = QueryService(ServerConfig(workers=2, corpora=(spec,)))
    yield service
    service.close()


class TestService:
    def test_sharded_corpus_answers_queries(self, sharded_service):
        plain = Engine.from_tagged_text(multi_play_text())
        response = sharded_service.execute(
            "speech containing speaker", corpus="plays", use_cache=False
        )
        expected = [
            [r.left, r.right]
            for r in plain.query("speech containing speaker")
        ]
        assert response["regions"] == expected

    def test_corpora_info_reports_partition(self, sharded_service):
        info = sharded_service.corpora_info()[0]
        assert info["shards"]["requested"] == 3
        assert len(info["shards"]["segments"]) == 3

    def test_shard_metrics_in_service_snapshot(self, sharded_service):
        sharded_service.execute(
            "line after speaker", corpus="plays", use_cache=False
        )
        counters = sharded_service.metrics_snapshot()["metrics"]["counters"]
        assert sum(counters.get("backend_requests_total", {}).values()) > 0

    def test_config_snapshot_reports_shards(self, sharded_service):
        assert sharded_service.healthz()["config"]["shards"] == 1


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
