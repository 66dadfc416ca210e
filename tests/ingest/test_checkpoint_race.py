"""WAL checkpoints racing the compactor: no acked batch may be lost.

``QueryService.compact`` merges segments, checkpoints the assembled
state, and truncates the WAL — all while ``ingest`` keeps appending
batches from other threads.  The invariant under test: however the
checkpoint/truncate interleaves with commits, a recovery over the same
ingest directory reconstructs exactly the acknowledged writes — a
batch committed concurrently with a truncation must land either in the
checkpoint snapshot or in the surviving WAL tail, never in neither.
"""

import threading

from repro.engine.storage import encode_instance
from repro.ingest import LiveCorpus
from repro.server import CorpusSpec, QueryService, ServerConfig

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=1)


def _config(tmp_path, **overrides) -> ServerConfig:
    settings = dict(
        workers=2,
        queue_depth=8,
        corpora=(PLAY,),
        ingest_enabled=True,
        ingest_dir=str(tmp_path / "wal"),
        ingest_fsync=False,  # semantics under test, not disks
        compaction_enabled=False,  # the test drives compaction itself
    )
    settings.update(overrides)
    return ServerConfig(**settings)


def _append(doc_id: str, word: str) -> dict:
    return {
        "op": "append",
        "id": doc_id,
        "text": f"<speech><speaker>Race</speaker>"
        f"<line>{word} at midnight</line></speech>",
    }


class TestCheckpointCompactorRace:
    def test_concurrent_checkpoints_never_drop_an_acked_batch(self, tmp_path):
        config = _config(tmp_path)
        service = QueryService(config)
        base = service._handle("play").engine
        mirror = LiveCorpus(base.instance, base.text)

        writes = 60
        acked: list[list[dict]] = []
        compactions = {"count": 0}
        stop = threading.Event()

        def compactor() -> None:
            # Checkpoint + truncate as fast as the lock allows, so
            # truncations land between (and race with) commits.
            while not stop.is_set():
                service.compact("play")
                compactions["count"] += 1

        thread = threading.Thread(target=compactor, daemon=True)
        thread.start()
        try:
            for i in range(writes):
                ops = [_append(f"race-{i}", f"word{i}")]
                service.ingest("play", ops)
                acked.append(ops)  # single writer: ack order = apply order
        finally:
            stop.set()
            thread.join(timeout=10.0)
            service.close()

        assert compactions["count"] >= 2  # the race actually happened
        for ops in acked:
            mirror.apply(ops)

        # Recovery over the same directory must see every acked batch:
        # whatever the last checkpoint missed must still be in the WAL.
        recovered = QueryService(config)
        try:
            handle = recovered._handle("play")
            info = recovered.ingest_info()["corpora"]["play"]
            assert info["documents"] == writes
            assert encode_instance(handle.engine.instance) == (
                encode_instance(mirror.instance)
            )
        finally:
            recovered.close()

    def test_checkpoint_mid_stream_replays_only_the_tail(self, tmp_path):
        config = _config(tmp_path)
        service = QueryService(config)
        try:
            for i in range(4):
                service.ingest("play", [_append(f"head-{i}", "alpha")])
            result = service.compact("play")
            assert result["checkpointed"] is True
            for i in range(3):
                service.ingest("play", [_append(f"tail-{i}", "omega")])
        finally:
            service.close()

        recovered = QueryService(config)
        try:
            info = recovered.ingest_info()["corpora"]["play"]
            # Only the three post-checkpoint batches replay; the first
            # four come out of the snapshot.
            assert info["replayed_batches"] == 3
            assert info["documents"] == 7
        finally:
            recovered.close()
