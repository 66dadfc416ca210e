"""Snapshot isolation of the read path: a query that captured
generation G keeps answering from G's engine even while ingest commits
publish G+1, G+2, … — across plain, thread-sharded, and process-sharded
evaluation."""

import threading
import time

import pytest

from repro.engine import Engine
from repro.engine.tagged import parse_tagged_text
from repro.faults.registry import FaultSpec, injected_faults
from repro.ingest import LiveCorpus
from repro.server import CorpusSpec, QueryService, ServerConfig

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=2)

BASE = (
    "<document>\n"
    "<speech><speaker>First</speaker><line>crown and throne</line></speech>\n"
    "</document>"
)


def _doc(word: str) -> str:
    return (
        f"<speech><speaker>Ingest</speaker>"
        f"<line>{word} at midnight</line></speech>"
    )


def _append(doc_id: str, word: str) -> dict:
    return {"op": "append", "id": doc_id, "text": _doc(word)}


def _service(tmp_path, **overrides) -> QueryService:
    settings = dict(
        workers=4,
        queue_depth=16,
        corpora=(PLAY,),
        cache_enabled=False,
        ingest_enabled=True,
        ingest_dir=str(tmp_path / "wal"),
        ingest_fsync=False,
        compaction_enabled=False,
    )
    settings.update(overrides)
    return QueryService(ServerConfig(**settings))


class TestHandleSnapshot:
    def test_captured_engine_outlives_the_next_generation(self, tmp_path):
        # The exact capture the service's _execute performs: engine and
        # generation are read together, then never re-read.
        service = _service(tmp_path)
        try:
            handle = service._handle("play")
            engine, generation = handle.engine, handle.generation
            before = [[r.left, r.right] for r in engine.query("speech")]
            service.ingest("play", [_append("a", "prophecy")])
            assert handle.generation == generation + 1
            # The old snapshot still answers exactly as it did …
            assert [
                [r.left, r.right] for r in engine.query("speech")
            ] == before
            # … while the published generation sees the new document.
            assert len(service._handle("play").engine.query("speech")) == (
                len(before) + 1
            )
        finally:
            service.close()

    def test_query_in_flight_during_commit_keeps_its_generation(
        self, tmp_path
    ):
        # Slow the evaluator down with latency faults, commit while the
        # query is provably mid-evaluation, and check it answers from
        # the generation it started on.
        service = _service(tmp_path)
        try:
            base = service.execute("speech dwithin scene", use_cache=False)
            result: dict = {}

            def read() -> None:
                result.update(
                    service.execute("speech dwithin scene", use_cache=False)
                )

            spec = FaultSpec(
                "evaluator.step", "latency", probability=1.0, latency=0.05
            )
            with injected_faults(spec) as registry:
                reader = threading.Thread(target=read)
                reader.start()
                deadline = time.monotonic() + 5.0
                while (
                    registry.fires("evaluator.step") == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                assert registry.fires("evaluator.step") > 0
                # The reader is inside evaluation, so its snapshot is
                # already pinned.  Publish two new generations under it.
                service.ingest("play", [_append("a", "prophecy")])
                service.ingest("play", [_append("b", "dagger")])
                reader.join()
            assert result["generation"] == base["generation"]
            assert result["regions"] == base["regions"]
        finally:
            service.close()

    def test_concurrent_readers_always_see_a_consistent_snapshot(
        self, tmp_path
    ):
        # Thread-sharded scatter-gather readers racing single-append
        # commits: every response's cardinality must match the
        # generation it claims (each commit adds exactly one speech),
        # which a torn mid-install read could not satisfy.
        service = _service(tmp_path, shards=2)
        try:
            base = service.execute("speech", use_cache=False)["cardinality"]
            stop = threading.Event()
            errors: list[Exception] = []

            def read() -> None:
                try:
                    while not stop.is_set():
                        response = service.execute("speech", use_cache=False)
                        expected = base + (response["generation"] - 1)
                        assert response["cardinality"] == expected, response
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            readers = [threading.Thread(target=read) for _ in range(3)]
            for thread in readers:
                thread.start()
            try:
                for i in range(8):
                    service.ingest("play", [_append(f"doc-{i}", "prophecy")])
            finally:
                stop.set()
                for thread in readers:
                    thread.join()
            assert not errors
        finally:
            service.close()


class TestShardedSnapshot:
    def test_sharded_engine_is_a_frozen_snapshot(self):
        # A sharded engine cuts its instance once, at construction; an
        # old engine's slices never see a commit.
        live = LiveCorpus(parse_tagged_text(BASE).instance, BASE)
        live.apply([_append("a", "prophecy"), _append("b", "dagger")])
        old = Engine(live.instance, shards=2)
        try:
            before = [[r.left, r.right] for r in old.query("speech")]
            assert len(before) == 3
            live.apply([_append("c", "ghost")])
            new = Engine(live.instance, shards=2)
            try:
                assert [
                    [r.left, r.right] for r in old.query("speech")
                ] == before
                assert len(new.query("speech")) == 4
            finally:
                new.close()
        finally:
            old.close()
