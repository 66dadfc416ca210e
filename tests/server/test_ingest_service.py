"""The service write path: ingest commits, generation-window cache
invalidation, compaction, WAL recovery across restarts, the replica
side of log shipping, and the HTTP ``/ingest`` + ``/compact`` adapters."""

import pytest

from repro.errors import (
    DuplicateDocumentError,
    IngestDisabledError,
    IngestError,
    UnknownDocumentError,
)
from repro.ingest import wal_checksum
from repro.server import CorpusSpec, QueryService, ServerConfig, create_server

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=2)


def _config(tmp_path, **overrides) -> ServerConfig:
    settings = dict(
        workers=2,
        queue_depth=8,
        corpora=(PLAY,),
        ingest_enabled=True,
        ingest_dir=str(tmp_path / "wal"),
        ingest_fsync=False,  # these tests measure semantics, not disks
        compaction_enabled=False,  # ticked explicitly where needed
    )
    settings.update(overrides)
    return ServerConfig(**settings)


def _doc(word: str) -> str:
    return (
        f"<speech><speaker>Ingest</speaker>"
        f"<line>{word} at midnight</line></speech>"
    )


def _append(doc_id: str, word: str) -> dict:
    return {"op": "append", "id": doc_id, "text": _doc(word)}


@pytest.fixture
def service(tmp_path):
    svc = QueryService(_config(tmp_path))
    yield svc
    svc.close()


class TestIngestCommit:
    def test_append_publishes_a_new_generation(self, service):
        before = service.execute("speech", use_cache=False)
        response = service.ingest("play", [_append("a", "prophecy")])
        assert response["generation"] == before["generation"] + 1
        assert response["batch_seq"] == 1
        assert response["applied"] == 1
        assert response["documents"] == 1
        after = service.execute("speech", use_cache=False)
        assert after["generation"] == response["generation"]
        assert after["cardinality"] == before["cardinality"] + 1

    def test_update_and_delete_change_the_layout(self, service):
        service.ingest("play", [_append("a", "prophecy"), _append("b", "x")])
        base = service.execute("speech", use_cache=False)["cardinality"]
        service.ingest("play", [{"op": "delete", "id": "b"}])
        assert (
            service.execute("speech", use_cache=False)["cardinality"]
            == base - 1
        )
        response = service.ingest(
            "play", [{"op": "update", "id": "a", "text": _doc("storm")}]
        )
        assert response["tombstones"] == 2

    def test_rejected_batch_commits_nothing(self, service):
        generation = service._handle("play").generation
        with pytest.raises(UnknownDocumentError):
            service.ingest(
                "play", [_append("a", "x"), {"op": "delete", "id": "nope"}]
            )
        assert service._handle("play").generation == generation
        assert service.ingest_info()["corpora"]["play"]["documents"] == 0

    def test_duplicate_append_rejected(self, service):
        service.ingest("play", [_append("a", "x")])
        with pytest.raises(DuplicateDocumentError):
            service.ingest("play", [_append("a", "y")])

    def test_healthz_reports_ingest_state(self, service):
        service.ingest("play", [_append("a", "x")])
        info = service.healthz()["ingest"]
        assert info["enabled"] is True
        assert info["corpora"]["play"]["documents"] == 1
        assert info["corpora"]["play"]["batches"] == 1


class TestLiveEngine:
    def test_the_program_cache_survives_a_commit(self, service):
        query = "line within (speech within scene)"
        service.execute(query, use_cache=False)
        expr = service._handle("play").engine.prepare(query)
        service.ingest("play", [_append("a", "prophecy")])
        assert service._handle("play").engine._evaluator.program_cached(expr)
        service.ingest("play", [{"op": "delete", "id": "a"}])
        explained = service.execute(query, explain_only=True)
        assert explained["program_cache_hit"] is True

    def test_reads_answer_per_piece_and_match_the_assembled_corpus(self, service):
        from repro.algebra.evaluator import Evaluator

        service.ingest("play", [_append("a", "prophecy"), _append("b", "dagger")])
        service.ingest(
            "play",
            [{"op": "update", "id": "a", "text": _doc("storm")}, _append("c", "x")],
        )
        engine = service._handle("play").engine
        assert engine.statistics()["pieces"]["pieces"] == 4  # base + 3
        for query in (
            "speech before (line @ \"storm\")",
            "line after scene",
            '"midnight"',
            "speech dwithin scene",
        ):
            response = service.execute(query, use_cache=False)
            expected = Evaluator().evaluate(query, engine.instance)
            assert response["regions"] == expected.pairs(), query
        assert engine.statistics()["pieces"]["reads"] == 4


#: A two-group in-process topology: the one way a service shards.
TOPOLOGY = dict(backend_nodes=2, backend_groups=2, backend_mode="inprocess")


class TestShardsOnAWritableCorpus:
    def test_it_is_never_sharded(self, tmp_path):
        # The engine itself never shards: the loaded base answers as a
        # plain engine, every later generation per piece, and the
        # topology scatters whichever generation a read captured.
        from repro.algebra.evaluator import Evaluator

        service = QueryService(_config(tmp_path, **TOPOLOGY))
        try:
            query = "speech before (line @ \"midnight\")"
            for step in range(3):
                engine = service._handle("play").engine
                stats = engine.statistics()
                (info,) = service.corpora_info()
                assert "shards" not in stats and "shards" not in info
                pieces = stats.get("pieces", {}).get("pieces")
                assert pieces == (step + 1 if step else None)
                assert info.get("pieces", {}).get("pieces") == pieces
                response = service.execute(query, use_cache=False)
                expected = Evaluator().evaluate(query, engine.instance)
                assert response["regions"] == expected.pairs()
                assert response["backend"]["groups"] == 2
                assert "fallback" not in response["backend"]
                if step < 2:
                    service.ingest("play", [_append(f"d{step}", "storm")])
            service.reload_corpus("play")
            assert "pieces" in service._handle("play").engine.statistics()
        finally:
            service.close()

    def test_a_read_only_corpus_keeps_its_shards(self, tmp_path):
        service = QueryService(
            _config(tmp_path, ingest_enabled=False, **TOPOLOGY)
        )
        try:
            response = service.execute("speech dwithin scene", use_cache=False)
            assert response["backend"]["groups"] == 2
            assert "fallback" not in response["backend"]
            assert "shards" not in service._handle("play").engine.statistics()
        finally:
            service.close()


class TestIngestDisabled:
    def test_writes_rejected_when_globally_disabled(self, tmp_path):
        service = QueryService(
            ServerConfig(workers=2, corpora=(PLAY,), ingest_enabled=False)
        )
        try:
            with pytest.raises(IngestDisabledError):
                service.ingest("play", [_append("a", "x")])
        finally:
            service.close()


class TestCacheInvalidation:
    def test_ingest_retires_only_aged_out_generations(self, service):
        # keep_generations=2: a commit to generation g keeps g-1 warm.
        cache = service.cache
        cache.put(("play", 1, "plan"), {"regions": []})
        service.ingest("play", [_append("a", "x")])  # generation 2
        assert ("play", 1, "plan") in cache
        service.ingest("play", [_append("b", "y")])  # generation 3
        assert ("play", 1, "plan") not in cache

    def test_reload_still_invalidates_the_whole_corpus(self, service):
        first = service.execute("speech")
        assert service.execute("speech")["cached"] is True
        service.ingest("play", [_append("a", "x")])
        service.reload_corpus("play")
        response = service.execute("speech")
        assert response["cached"] is False
        assert response["generation"] > first["generation"]

    def test_stale_generation_served_while_degraded(self, service):
        # The satellite regression: entries from a superseded-but-kept
        # generation must stay servable when degraded mode misses.
        warm = service.execute("speech dwithin scene")  # cached at gen 1
        service.ingest("play", [_append("a", "x")])  # gen 2 misses
        service.health.set_pressure("test", True)
        try:
            response = service.execute("speech dwithin scene")
            assert response["stale"] is True
            assert response["cached"] is True
            assert response["generation"] == warm["generation"]
        finally:
            service.health.set_pressure("test", False)


class TestReloadRebase:
    def test_reload_preserves_ingested_documents(self, service):
        service.ingest("play", [_append("a", "prophecy")])
        before = service.execute("speech", use_cache=False)["cardinality"]
        service.reload_corpus("play")
        after = service.execute("speech", use_cache=False)
        assert after["cardinality"] == before
        assert service.ingest_info()["corpora"]["play"]["documents"] == 1

    def test_reload_drops_deleted_documents_for_good(self, service):
        service.ingest("play", [_append("a", "x"), _append("b", "y")])
        service.ingest("play", [{"op": "delete", "id": "a"}])
        service.reload_corpus("play")
        info = service.ingest_info()["corpora"]["play"]
        assert info["documents"] == 1
        assert info["tombstones"] == 0  # the rebase re-appends survivors


class TestCompaction:
    def test_compact_keeps_answers_and_generation(self, service):
        service.ingest("play", [_append("a", "x")])
        service.ingest("play", [_append("b", "y")])
        service.ingest("play", [{"op": "delete", "id": "a"}])
        before = service.execute("speech", use_cache=False)
        response = service.compact("play")
        assert response["compacted"] is True
        assert response["checkpointed"] is True
        assert response["segments"] == 1
        assert response["tombstones"] == 0
        after = service.execute("speech", use_cache=False)
        # Compaction is pure maintenance: same generation, same answer.
        assert after["generation"] == before["generation"]
        assert after["cardinality"] == before["cardinality"]

    def test_compact_checkpoints_a_nonempty_wal_even_without_merging(
        self, service
    ):
        service.ingest("play", [_append("a", "x")])
        response = service.compact("play")
        assert response["compacted"] is False  # one segment, nothing to merge
        assert response["checkpointed"] is True
        assert service.ingest_info()["corpora"]["play"]["wal_bytes"] == 0

    def test_candidates_need_tombstones_or_enough_small_segments(
        self, tmp_path
    ):
        service = QueryService(
            _config(tmp_path, compaction_min_segments=2)
        )
        try:
            assert service._compaction_candidates() == []
            service.ingest("play", [_append("a", "x")])
            assert service._compaction_candidates() == []
            service.ingest("play", [_append("b", "y")])
            assert service._compaction_candidates() == ["play"]
            service.compact("play")
            assert service._compaction_candidates() == []
            service.ingest("play", [{"op": "delete", "id": "a"}])
            assert service._compaction_candidates() == ["play"]
        finally:
            service.close()

    def test_background_compactor_wiring(self, tmp_path):
        service = QueryService(
            _config(
                tmp_path,
                compaction_enabled=True,
                compaction_interval=60.0,  # ticked by hand below
                compaction_min_segments=2,
            )
        )
        try:
            service.ingest("play", [_append("a", "x")])
            service.ingest("play", [_append("b", "y")])
            assert service.compactor.run_once() == "play"
            assert (
                service.ingest_info()["corpora"]["play"]["compactions"] == 1
            )
        finally:
            service.close()


class TestRestartRecovery:
    def test_wal_replay_restores_documents(self, tmp_path):
        config = _config(tmp_path)
        service = QueryService(config)
        try:
            service.ingest("play", [_append("a", "prophecy")])
            service.ingest("play", [{"op": "update", "id": "a", "text": _doc("storm")}])
            cardinality = service.execute("speech", use_cache=False)[
                "cardinality"
            ]
        finally:
            service.close()
        revived = QueryService(config)
        try:
            info = revived.ingest_info()["corpora"]["play"]
            assert info["documents"] == 1
            assert info["replayed_batches"] == 2
            # Generation 1 is the bare base a blank replica serves; the
            # recovered corpus must not share its number.
            assert revived._handle("play").generation == 2
            assert (
                revived.execute("speech", use_cache=False)["cardinality"]
                == cardinality
            )
        finally:
            revived.close()

    def test_checkpoint_bounds_replay(self, tmp_path):
        config = _config(tmp_path)
        service = QueryService(config)
        try:
            service.ingest("play", [_append("a", "x")])
            service.compact("play")  # snapshot + truncate
            service.ingest("play", [_append("b", "y")])
        finally:
            service.close()
        revived = QueryService(config)
        try:
            info = revived.ingest_info()["corpora"]["play"]
            assert info["documents"] == 2
            # Only the post-checkpoint batch needed replaying.
            assert info["replayed_batches"] == 1
            # Sequence numbers continue past everything ever logged.
            assert info["next_batch_seq"] == 3
        finally:
            revived.close()


def _ship(service, generation: int, ops: list, checksum: str | None = None):
    """A frontier's ship of the batch that made ``generation``."""
    record = {
        "corpus": "play",
        "seq": generation - 1,
        "generation": generation,
        "ops": ops,
    }
    return service.replicate_apply(
        "play",
        record["seq"],
        ops,
        generation,
        checksum if checksum is not None else wal_checksum(record),
    )


@pytest.fixture
def replica(tmp_path):
    """A backend node's service: no WAL, so its writes come by ship."""
    svc = QueryService(
        _config(
            tmp_path,
            ingest_enabled=False,
            compaction_enabled=True,
            compaction_interval=60.0,  # ticked by hand below
        )
    )
    yield svc
    svc.close()


class TestReplica:
    def test_a_reload_keeps_the_shipped_generation(self, replica):
        base = replica.execute("speech", use_cache=False)["cardinality"]
        assert _ship(replica, 2, [_append("a", "prophecy")])["status"] == (
            "applied"
        )
        assert replica.reload_corpus("play")["generation"] == 2
        after = replica.execute("speech", use_cache=False)
        assert after["generation"] == 2
        assert after["cardinality"] == base + 1
        # The frontier's next ship still lines up.
        shipped = _ship(replica, 3, [_append("b", "storm")])
        assert shipped == {"corpus": "play", "applied": 3, "status": "applied"}
        assert (
            replica.execute("speech", use_cache=False)["cardinality"]
            == base + 2
        )

    def test_a_corrupt_ship_is_refused(self, replica):
        shipped = _ship(replica, 2, [_append("a", "x")], checksum="0" * 64)
        assert shipped["status"] == "checksum_mismatch"
        assert shipped["applied"] == 1
        assert replica._handle("play").generation == 1

    def test_the_compactor_drops_a_replicas_tombstones(self, replica):
        _ship(replica, 2, [_append("a", "x"), _append("b", "y")])
        _ship(replica, 3, [{"op": "delete", "id": "a"}])
        before = replica.execute("speech", use_cache=False)
        assert replica.ingest_info()["corpora"]["play"]["tombstones"] == 1
        assert replica.compactor.run_once() == "play"
        info = replica.ingest_info()["corpora"]["play"]
        assert info["tombstones"] == 0
        assert info["wal_bytes"] is None  # a replica has no checkpoint
        after = replica.execute("speech", use_cache=False)
        assert after["generation"] == before["generation"] == 3
        assert after["regions"] == before["regions"]

    def test_racing_first_ships_attach_one_state(self):
        # Eight threads race the first ship of generation 2 onto each of
        # 32 corpora with no live state yet: one overlay is attached per
        # corpus, one ship applies, and the rest find it already there.
        import sys
        import threading

        specs = tuple(
            CorpusSpec(name=f"p{i}", kind="synthetic", path="play", seed=i)
            for i in range(32)
        )
        service = QueryService(
            ServerConfig(workers=2, corpora=specs, compaction_enabled=False)
        )
        ops = [_append("a", "x")]
        statuses: dict[str, list[str]] = {spec.name: [] for spec in specs}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for name, seen in statuses.items():
                record = {"corpus": name, "seq": 1, "generation": 2, "ops": ops}
                barrier = threading.Barrier(8)

                def ship():
                    barrier.wait(timeout=10)
                    answer = service.replicate_apply(
                        name, 1, ops, 2, wal_checksum(record)
                    )
                    seen.append(answer["status"])

                threads = [threading.Thread(target=ship) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
            corpora = service.ingest_info()["corpora"]
        finally:
            sys.setswitchinterval(interval)
            service.close()
        for name, seen in statuses.items():
            assert sorted(seen) == ["applied"] + ["stale"] * 7, name
            assert corpora[name]["documents"] == 1, name

    def test_a_replica_takes_no_posted_writes(self, replica):
        _ship(replica, 2, [_append("a", "x")])
        with pytest.raises(IngestDisabledError):
            replica.ingest("play", [_append("b", "y")])


class TestWalCorpusRefusesReplication:
    @pytest.mark.parametrize("route", ["apply", "snapshot"])
    def test_a_shipped_write_is_refused(self, service, route):
        service.ingest("play", [_append("a", "prophecy")])
        before = service.execute("speech", use_cache=False)
        with pytest.raises(IngestError) as excinfo:
            if route == "apply":
                _ship(service, before["generation"] + 1, [_append("b", "x")])
            else:
                service.replicate_snapshot(
                    "play", {"through_batch": 0, "docs": []}, 7
                )
        assert excinfo.value.code == "ingest_error"
        after = service.execute("speech", use_cache=False)
        assert after["generation"] == before["generation"]
        assert after["regions"] == before["regions"]
        # Its own next commit keeps everything it acknowledged.
        response = service.ingest("play", [_append("c", "storm")])
        assert response["documents"] == 2


class TestPublishAfterShip:
    def test_no_read_sees_a_generation_before_its_ship_returns(self, service):
        seen = []

        class Coordinator:
            def ship(self, corpus, seq, ops, generation):
                read = service.execute("speech", use_cache=False)
                seen.append((generation, read["generation"]))
                return {"nodes": 0, "applied": 0, "failed": 0}

            def close(self):
                pass

        service.replication = Coordinator()
        response = service.ingest("play", [_append("a", "prophecy")])
        assert seen == [(2, 1)]
        assert response["generation"] == 2
        assert service.execute("speech", use_cache=False)["generation"] == 2


class TestHttpAdapters:
    @pytest.fixture
    def server(self, service):
        srv = create_server(service, port=0)
        srv.serve_in_background()
        yield srv
        srv.stop()

    def _request(self, server, method, path, body=None):
        import http.client
        import json

        connection = http.client.HTTPConnection(
            "127.0.0.1", server.bound_port, timeout=10
        )
        try:
            payload = json.dumps(body) if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_post_ingest_commits(self, server):
        status, body = self._request(
            server,
            "POST",
            "/ingest",
            {"corpus": "play", "ops": [_append("a", "prophecy")]},
        )
        assert status == 200
        assert body["applied"] == 1
        assert body["documents"] == 1

    def test_empty_ops_is_invalid_request(self, server):
        status, body = self._request(
            server, "POST", "/ingest", {"corpus": "play", "ops": []}
        )
        assert status == 400
        assert body["code"] == "invalid_request"

    def test_unknown_document_maps_to_404(self, server):
        status, body = self._request(
            server,
            "POST",
            "/ingest",
            {"corpus": "play", "ops": [{"op": "delete", "id": "nope"}]},
        )
        assert status == 404
        assert body["code"] == "unknown_document"

    def test_duplicate_document_maps_to_409(self, server):
        self._request(
            server,
            "POST",
            "/ingest",
            {"corpus": "play", "ops": [_append("dup", "x")]},
        )
        status, body = self._request(
            server,
            "POST",
            "/ingest",
            {"corpus": "play", "ops": [_append("dup", "y")]},
        )
        assert status == 409
        assert body["code"] == "duplicate_document"

    def test_post_compact(self, server):
        self._request(
            server,
            "POST",
            "/ingest",
            {"corpus": "play", "ops": [_append("a", "x")]},
        )
        status, body = self._request(
            server, "POST", "/compact", {"corpus": "play"}
        )
        assert status == 200
        assert body["checkpointed"] is True

    def test_replicate_to_a_wal_corpus_maps_to_400(self, server):
        status, body = self._request(
            server,
            "POST",
            "/replicate/snapshot",
            {"corpus": "play", "state": {"docs": []}, "generation": 5},
        )
        assert status == 400
        assert body["code"] == "ingest_error"

    def test_ingest_disabled_maps_to_400(self, tmp_path):
        service = QueryService(
            ServerConfig(workers=2, corpora=(PLAY,), ingest_enabled=False)
        )
        srv = create_server(service, port=0)
        srv.serve_in_background()
        try:
            status, body = self._request(
                srv,
                "POST",
                "/ingest",
                {"corpus": "play", "ops": [_append("a", "x")]},
            )
            assert status == 400
            assert body["code"] == "ingest_disabled"
        finally:
            srv.stop()
