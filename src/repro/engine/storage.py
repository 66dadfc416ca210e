"""Index persistence: JSON serialization of instances.

A text indexing system builds its region and word indexes once and
reopens them for querying; this module provides the (deliberately
transparent) on-disk format::

    {
      "version": 1,
      "names": ["Proc", ...],
      "sets": {"Proc": [[left, right], ...], ...},
      "word_index": {"kind": "text", "tokens": [[word, left, right], ...]}
                  | {"kind": "label", "labels": [[left, right, ["p", ...]], ...]}
                  | {"kind": "none"},
      "checksum": "sha256 hex of the canonical JSON of everything above"
    }

Both word-index flavours round-trip exactly; a foreign
:class:`~repro.core.WordIndex` implementation is rejected rather than
silently dropped.

Robustness (see ``docs/robustness.md``): writes are crash-safe (fsync
of both the temp file and its directory around the atomic rename) and
carry a content checksum; reads verify it and raise
:class:`~repro.errors.CorruptIndexError` — a distinct subclass of
:class:`~repro.errors.StorageError` — on any mismatch or undecodable
payload, so the serving layer can quarantine the file
(:func:`quarantine_index`) and rebuild from source instead of serving
from a damaged index.  Files written before checksums existed still
load.  Both paths traverse the ``storage.read`` / ``storage.write``
fault points of :mod:`repro.faults`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from repro.core.instance import Instance
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.core.wordindex import LabelWordIndex, TextWordIndex
from repro.errors import CorruptIndexError, StorageError
from repro.faults import registry as _faults

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "quarantine_index",
    "SUPPORTED_VERSIONS",
]

_VERSION = 1

#: Format versions :func:`instance_from_dict` can read.
SUPPORTED_VERSIONS = (1,)


def _checksum(data: dict[str, Any]) -> str:
    """sha256 of the canonical JSON encoding of ``data`` (sans checksum)."""
    core = {k: v for k, v in data.items() if k != "checksum"}
    canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    """The JSON-ready representation of an instance (checksummed)."""
    word_index = instance.word_index
    if isinstance(word_index, TextWordIndex):
        payload: dict[str, Any] = {
            "kind": "text",
            "tokens": [list(token) for token in word_index.tokens()],
        }
    elif isinstance(word_index, LabelWordIndex):
        payload = {
            "kind": "label",
            "labels": [
                [region.left, region.right, sorted(patterns)]
                for region, patterns in word_index.items()
                if patterns
            ],
        }
    else:
        raise StorageError(
            f"cannot serialize word index of type {type(word_index).__name__}"
        )
    data = {
        "version": _VERSION,
        "names": list(instance.names),
        "sets": {
            name: [[r.left, r.right] for r in instance.region_set(name)]
            for name in instance.names
        },
        "word_index": payload,
    }
    data["checksum"] = _checksum(data)
    return data


def instance_from_dict(data: dict[str, Any]) -> Instance:
    """Rebuild an instance from :func:`instance_to_dict` output.

    The ``checksum`` key is ignored here — callers holding a dict
    already trust it; :func:`load_instance` verifies the checksum of
    what actually came off the disk.
    """
    try:
        if data["version"] not in SUPPORTED_VERSIONS:
            supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
            raise StorageError(
                f"unsupported index version {data['version']!r} "
                f"(this build reads version(s): {supported}); "
                "re-index the document with this version of repro"
            )
        sets = {
            name: RegionSet(Region(l, r) for l, r in data["sets"].get(name, []))
            for name in data["names"]
        }
        payload = data["word_index"]
        if payload["kind"] == "text":
            word_index = TextWordIndex(
                (word, l, r) for word, l, r in payload["tokens"]
            )
        elif payload["kind"] == "label":
            word_index = LabelWordIndex(
                {
                    Region(l, r): set(patterns)
                    for l, r, patterns in payload["labels"]
                }
            )
        elif payload["kind"] == "none":
            word_index = None
        else:
            raise StorageError(f"unknown word index kind {payload['kind']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptIndexError(f"malformed index data: {exc}") from exc
    return Instance(sets, word_index)


def save_instance(instance: Instance, path: str | Path) -> None:
    """Write an instance to a JSON file, atomically and crash-safely.

    The payload lands in a temporary file in the target directory and is
    moved into place with :func:`os.replace`, so a reader (or a serving
    process reloading its corpus) never observes a torn index.  Both the
    temp file and the directory are fsynced around the rename, so the
    atomicity survives power loss, not just process death: after a
    crash the target is either the complete old file or the complete
    new one, never an empty or half-written entry.
    """
    _faults.fire("storage.write")
    target = Path(path)
    payload = json.dumps(instance_to_dict(instance))
    directory = target.parent if str(target.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
        _fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _fsync_directory(directory: Path) -> None:
    """Persist a rename by fsyncing its directory (no-op where the
    platform does not support opening directories)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_instance(path: str | Path) -> Instance:
    """Read an instance back from :func:`save_instance` output.

    Raises :class:`~repro.errors.StorageError` for I/O failures and
    :class:`~repro.errors.CorruptIndexError` when the file exists but
    its contents fail decoding or checksum verification.  Load time
    lands in the process-wide ``index_build_seconds{kind=load}``
    histogram.
    """
    from time import perf_counter

    from repro.obs.metrics import INDEX_BUILD_SECONDS, global_registry

    started = perf_counter()
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read index from {path}: {exc}") from exc
    raw = _faults.fire("storage.read", raw)
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptIndexError(
            f"index file {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise CorruptIndexError(f"index file {path} is not a JSON object")
    recorded = data.get("checksum")
    if recorded is not None and recorded != _checksum(data):
        raise CorruptIndexError(
            f"index file {path} failed checksum verification: contents do "
            "not match the recorded sha256 (truncated or corrupted write?)"
        )
    instance = instance_from_dict(data)
    global_registry().histogram(INDEX_BUILD_SECONDS).observe(
        perf_counter() - started, kind="load"
    )
    return instance


def quarantine_index(path: str | Path) -> Path | None:
    """Move a corrupt index file aside so it is never loaded again.

    Renames ``index.json`` to ``index.json.quarantined`` (with a numeric
    suffix if that name is taken) in the same directory, and counts the
    event in ``storage_quarantined_total``.  Returns the quarantine path,
    or ``None`` when the file had already vanished.
    """
    from repro.obs.metrics import STORAGE_QUARANTINED_TOTAL, global_registry

    source = Path(path)
    destination = source.with_name(source.name + ".quarantined")
    attempt = 0
    while destination.exists():
        attempt += 1
        destination = source.with_name(f"{source.name}.quarantined.{attempt}")
    try:
        os.replace(source, destination)
    except OSError:
        return None
    global_registry().counter(
        STORAGE_QUARANTINED_TOTAL, help="corrupt index files moved aside"
    ).inc()
    return destination
