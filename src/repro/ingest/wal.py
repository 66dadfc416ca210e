"""A crash-safe write-ahead log for corpus mutations.

Every ingest batch is recorded here *before* it is applied: one JSON
line per operation, closed by a commit line carrying the operation
count, every line checksummed with the same canonical-JSON sha256 used
by the index files (:mod:`repro.engine.storage`).  Durability contract:

* a batch is **committed** iff its commit record is on disk intact;
* :meth:`WriteAheadLog.append_batch` fsyncs once, after the commit
  record, and only then returns — so an acknowledged batch is exactly a
  committed batch;
* :meth:`WriteAheadLog.replay` yields committed batches only, in
  sequence order, skipping any torn tail a crash left behind (a batch
  whose commit record is missing, truncated, or checksum-corrupt was
  never acknowledged, so dropping it loses nothing).

The ``storage.write`` fault point fires before every record write,
which lets the recovery property tests kill an append at every record
boundary and assert the all-or-nothing semantics.

A checkpoint (:meth:`save_snapshot` + :meth:`truncate`) bounds replay
work: the snapshot file is written atomically (temp file + fsync +
rename + directory fsync, exactly like ``save_instance``) and records
the last batch sequence it folds in; replay then skips batches at or
below that watermark, so a crash *between* snapshot and truncation is
harmless — the overlapping batches are simply not re-applied.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator

from repro.errors import CorruptIndexError, StorageError
from repro.faults import registry as _faults

__all__ = ["WriteAheadLog", "wal_checksum"]


def wal_checksum(record: dict[str, Any]) -> str:
    """sha256 of the canonical JSON of ``record`` (sans checksum)."""
    import hashlib

    core = {k: v for k, v in record.items() if k != "checksum"}
    canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fsync_directory(directory: Path) -> None:
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class WriteAheadLog:
    """The per-corpus mutation log: ``<dir>/<corpus>.wal`` JSON lines
    plus an atomic ``<dir>/<corpus>.snapshot.json`` checkpoint."""

    def __init__(
        self,
        directory: str | Path,
        corpus: str,
        *,
        fsync: bool = True,
    ):
        self.directory = Path(directory)
        self.corpus = corpus
        self.fsync = fsync
        self.path = self.directory / f"{corpus}.wal"
        self.snapshot_path = self.directory / f"{corpus}.snapshot.json"
        self.directory.mkdir(parents=True, exist_ok=True)
        self._next_seq = self._scan_next_seq()

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The sequence number the next batch will use."""
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """The highest batch sequence ever handed out (0 when fresh)."""
        return self._next_seq - 1

    def append_batch(self, ops: list[dict[str, Any]]) -> int:
        """Record one batch durably; returns its sequence number.

        All-or-nothing: any failure (I/O error, injected fault) before
        the final fsync leaves at most a commit-less partial batch in
        the file, which :meth:`replay` ignores.  The sequence number is
        consumed either way, so a retried batch never collides.
        """
        seq = self._next_seq
        self._next_seq += 1
        with open(self.path, "a", encoding="utf-8") as handle:
            for index, op in enumerate(ops):
                record = {"seq": seq, "kind": "op", "index": index, "op": op}
                self._write_record(handle, record)
            commit = {"seq": seq, "kind": "commit", "ops": len(ops)}
            self._write_record(handle, commit)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        return seq

    def _write_record(self, handle, record: dict[str, Any]) -> None:
        _faults.fire("storage.write")
        record["checksum"] = wal_checksum(record)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        handle.write(line + "\n")

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------

    def _scan_next_seq(self) -> int:
        """The first unused sequence number: one past the highest seq
        mentioned by any intact record (committed or not), and never
        below the snapshot watermark."""
        highest = 0
        snapshot = self.load_snapshot()
        if snapshot is not None:
            highest = int(snapshot.get("through_batch", 0))
        for record in self._intact_records():
            if record["seq"] > highest:
                highest = record["seq"]
        return highest + 1

    def _intact_records(self) -> Iterator[dict[str, Any]]:
        """Every record that parses and passes its checksum; reading
        stops at the first damaged line (everything after a torn write
        is suspect, and a single-writer log only tears at the tail)."""
        try:
            raw = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        except OSError as exc:  # pragma: no cover - disk failure
            raise StorageError(f"cannot read WAL {self.path}: {exc}") from exc
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                return
            if not isinstance(record, dict) or "seq" not in record:
                return
            if record.get("checksum") != wal_checksum(record):
                return
            yield record

    def replay(self, after: int = 0) -> list[tuple[int, list[dict[str, Any]]]]:
        """Committed batches with ``seq > after``, in sequence order.

        A batch counts only when its commit record is intact and every
        one of its ``ops`` operation records is present.
        """
        ops_by_seq: dict[int, dict[int, dict[str, Any]]] = {}
        committed: dict[int, int] = {}
        for record in self._intact_records():
            seq = record["seq"]
            if record.get("kind") == "op":
                ops_by_seq.setdefault(seq, {})[record["index"]] = record["op"]
            elif record.get("kind") == "commit":
                committed[seq] = record["ops"]
        batches: list[tuple[int, list[dict[str, Any]]]] = []
        for seq in sorted(committed):
            if seq <= after:
                continue
            count = committed[seq]
            ops = ops_by_seq.get(seq, {})
            if len(ops) != count or set(ops) != set(range(count)):
                continue  # commit without all its ops: treat as torn
            batch = [ops[i] for i in range(count)]
            batches.append((seq, batch))
        return batches

    # ------------------------------------------------------------------
    # Checkpointing.
    # ------------------------------------------------------------------

    def save_snapshot(self, state: dict[str, Any]) -> None:
        """Atomically persist a checkpoint of the live corpus state.

        ``state`` must carry ``through_batch`` — the last batch sequence
        folded into it; :meth:`replay` skips batches at or below it.
        """
        if "through_batch" not in state:
            raise ValueError("snapshot state needs a through_batch watermark")
        _faults.fire("storage.write")
        data = dict(state)
        data["checksum"] = wal_checksum(data)
        payload = json.dumps(data, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=self.snapshot_path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            os.replace(tmp_name, self.snapshot_path)
            if self.fsync:
                _fsync_directory(self.directory)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def load_snapshot(self) -> dict[str, Any] | None:
        """The latest checkpoint, or ``None``; checksum-verified."""
        try:
            raw = self.snapshot_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:  # pragma: no cover - disk failure
            raise StorageError(
                f"cannot read snapshot {self.snapshot_path}: {exc}"
            ) from exc
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorruptIndexError(
                f"snapshot {self.snapshot_path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict) or data.get("checksum") != wal_checksum(data):
            raise CorruptIndexError(
                f"snapshot {self.snapshot_path} failed checksum verification"
            )
        return data

    def truncate(self) -> None:
        """Atomically replace the log with an empty file (post-checkpoint)."""
        _faults.fire("storage.write")
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=self.path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8"):
                pass
            os.replace(tmp_name, self.path)
            if self.fsync:
                _fsync_directory(self.directory)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def size_bytes(self) -> int:
        try:
            return self.path.stat().st_size
        except OSError:
            return 0
