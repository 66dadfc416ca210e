"""The WAL crash-recovery property: kill the writer at *every* record
boundary via the ``storage.write`` fault point, replay, and hold the
recovered corpus bit-identical to a rebuilt-from-scratch oracle.

The durability contract under test: a batch is acknowledged iff its
commit record is durable, so after any crash the recovered state must
contain exactly the acknowledged batches — no committed mutation lost,
no uncommitted mutation applied.
"""

import pytest

from repro.engine.storage import encode_instance
from repro.engine.tagged import parse_tagged_text
from repro.errors import FaultInjected
from repro.faults.registry import FaultSpec, injected_faults
from repro.ingest import LiveCorpus, WriteAheadLog

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


#: A scripted mutation history covering every op kind, including a
#: batch that both deletes and appends.
BATCHES = [
    [
        {"op": "append", "id": "a", "text": _doc("prophecy")},
        {"op": "append", "id": "b", "text": _doc("dagger")},
    ],
    [{"op": "update", "id": "a", "text": _doc("storm")}],
    [
        {"op": "delete", "id": "b"},
        {"op": "append", "id": "c", "text": _doc("ghost")},
    ],
    [{"op": "append", "id": "d", "text": _doc("banquet")}],
]

#: Each batch writes one record per op plus a commit record.
TOTAL_RECORDS = sum(len(batch) + 1 for batch in BATCHES)


def _live() -> LiveCorpus:
    return LiveCorpus(parse_tagged_text(BASE).instance, BASE)


def _run_writer(tmp_path, boundary: int):
    """Apply the scripted history, crashing at record ``boundary``
    (``boundary == TOTAL_RECORDS`` is the crash-free control run).
    Returns the acknowledged ``(seq, batch)`` list and the live state
    the writer reached — the service applies a batch only after the WAL
    acknowledged it, so this is exactly what queries could have seen.
    """
    wal = WriteAheadLog(tmp_path, "play", fsync=True)
    live = _live()
    acked = []
    spec = FaultSpec(
        "storage.write",
        "error",
        probability=1.0,
        skip_fires=boundary,
        max_fires=1,
    )
    with injected_faults(spec) as registry:
        for batch in BATCHES:
            try:
                seq = wal.append_batch(batch)
            except FaultInjected:
                break  # the crash: nothing after this instant happened
            live.apply(batch)
            acked.append((seq, batch))
        if boundary < TOTAL_RECORDS:
            assert registry.fires("storage.write") == 1
    return acked, live


@pytest.mark.parametrize("boundary", range(TOTAL_RECORDS + 1))
def test_crash_at_every_record_boundary_loses_nothing_committed(
    tmp_path, boundary
):
    acked, live = _run_writer(tmp_path, boundary)

    # Recovery: reopen the log cold and replay committed batches only.
    replayed = WriteAheadLog(tmp_path, "play").replay()
    assert replayed == acked

    recovered = _live()
    for _seq, batch in replayed:
        recovered.apply(batch)

    # The recovered corpus is exactly the acknowledged state ...
    assert encode_instance(recovered.instance) == encode_instance(
        live.instance
    )
    # ... and bit-identical to a full re-parse of its combined text.
    assert encode_instance(recovered.instance) == encode_instance(
        recovered.oracle_instance()
    )


def test_sequence_numbers_never_collide_after_a_crash(tmp_path):
    # Crash on batch 2's commit record (the 5th overall): its op record
    # reached disk, but the batch was never acknowledged.
    acked, _live_state = _run_writer(tmp_path, 4)
    assert [seq for seq, _ in acked] == [1]
    wal = WriteAheadLog(tmp_path, "play")
    # Batch 2 burned its sequence number even though it never
    # committed; the retry gets a fresh one and replay stays ordered.
    assert wal.next_seq == 3
    retry_seq = wal.append_batch(BATCHES[1])
    assert retry_seq == wal.last_seq
    assert [seq for seq, _ in wal.replay()] == [1, retry_seq]


def test_recovery_through_checkpoint_plus_tail(tmp_path):
    wal = WriteAheadLog(tmp_path, "play", fsync=True)
    live = _live()
    for batch in BATCHES[:2]:
        wal.append_batch(batch)
        live.apply(batch)
    # Checkpoint, then keep writing: recovery must fold the snapshot
    # first and replay only the tail past its watermark.
    wal.save_snapshot(live.state(through_batch=wal.last_seq))
    wal.truncate()
    for batch in BATCHES[2:]:
        wal.append_batch(batch)
        live.apply(batch)

    cold = WriteAheadLog(tmp_path, "play")
    snapshot = cold.load_snapshot()
    recovered = LiveCorpus.from_state(
        snapshot, parse_tagged_text(BASE).instance, BASE
    )
    tail = cold.replay(after=int(snapshot["through_batch"]))
    assert len(tail) == len(BATCHES[2:])
    for _seq, batch in tail:
        recovered.apply(batch)
    assert encode_instance(recovered.instance) == encode_instance(
        live.instance
    )


def test_crash_during_checkpoint_preserves_the_log(tmp_path):
    wal = WriteAheadLog(tmp_path, "play", fsync=True)
    live = _live()
    for batch in BATCHES:
        wal.append_batch(batch)
        live.apply(batch)
    with injected_faults(FaultSpec("storage.write", "error", probability=1.0)):
        with pytest.raises(FaultInjected):
            wal.save_snapshot(live.state(through_batch=wal.last_seq))
    # The failed checkpoint left no snapshot and the full log intact:
    # recovery replays everything as if the checkpoint never started.
    cold = WriteAheadLog(tmp_path, "play")
    assert cold.load_snapshot() is None
    recovered = _live()
    for _seq, batch in cold.replay():
        recovered.apply(batch)
    assert encode_instance(recovered.instance) == encode_instance(
        live.instance
    )
