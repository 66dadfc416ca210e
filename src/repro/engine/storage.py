"""Index persistence: a checksummed file of int columns.

An index file holds an instance's columns as they sit in memory — the
region *universe* (every region in ``(left, right)`` order) and, for a
text index, its postings — so loading is a checksum and
``array.frombytes``, with no parse and no sort::

    repro-index\n                         magic line
    <sha256 hex of all that follows>\n    checksum line
    {"version": 2, ...}\n                 JSON header line
    <raw little-endian int columns>       body

The header holds the region names and per-name counts, the word-index
kind with the token table and per-token counts (a text index) or the
labels (a label index), and the column width: ``"i"`` when every
endpoint fits in 32 bits, else ``"q"``.  The body is the universe
``lefts``, ``rights`` and name ids, then for a text index every
posting's ``lefts`` and then every posting's ``rights``, in vocabulary
order.  :func:`encode_instance` is deterministic whatever order the
instance was built in: the bit-identity oracle of live ingestion.

Writes are crash-safe (fsync of both the temp file and its directory
around the atomic rename).  Reads raise
:class:`~repro.errors.CorruptIndexError` — a subclass of
:class:`~repro.errors.StorageError` the serving layer answers by
quarantining the file (:func:`quarantine_index`) and rebuilding from
source — when the magic line, the mandatory checksum, the header or a
column length is wrong, or the columns are not a hierarchical
instance; an index of another format version (the JSON files of
version 1 included) raises a plain ``StorageError`` asking for a
re-index.  Both paths traverse the ``storage.read`` / ``storage.write``
fault points of :mod:`repro.faults` (see ``docs/robustness.md``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from array import array
from itertools import chain
from pathlib import Path
from typing import Any

from repro.core.instance import Instance
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.core.wordindex import LabelWordIndex, TextWordIndex
from repro.errors import (
    CorruptIndexError,
    HierarchyError,
    InvalidRegionError,
    StorageError,
)
from repro.faults import registry as _faults

__all__ = [
    "encode_instance",
    "decode_instance",
    "save_instance",
    "load_instance",
    "quarantine_index",
    "SUPPORTED_VERSIONS",
]

_VERSION = 2

#: Format versions :func:`decode_instance` can read.
SUPPORTED_VERSIONS = (_VERSION,)

_MAGIC = b"repro-index\n"
_DIGEST_LINE = 65  # 64 hex digits and a newline
_INT32 = (-(2**31), 2**31 - 1)


def _unsupported(version: Any) -> StorageError:
    supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
    return StorageError(
        f"unsupported index version {version!r} "
        f"(this build reads version(s): {supported}); "
        "re-index the document with this version of repro"
    )


def _pack(width: str, column: list[int]) -> bytes:
    packed = array(width, column)
    if sys.byteorder == "big":  # pragma: no cover - platform-dependent
        packed.byteswap()
    return packed.tobytes()


def encode_instance(instance: Instance) -> bytes:
    """The canonical bytes of an index file for ``instance``."""
    word_index = instance.word_index
    lefts, rights, name_ids = instance.columns()
    columns = [lefts, rights, name_ids]
    if isinstance(word_index, TextWordIndex):
        postings = word_index.postings()
        payload: dict[str, Any] = {
            "kind": "text",
            "tokens": [token for token, _ in postings],
            "counts": [len(posting) for _, posting in postings],
        }
        columns.append(list(chain.from_iterable(p._lefts for _, p in postings)))
        columns.append(list(chain.from_iterable(p._rights for _, p in postings)))
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
    ends = [value for column in columns if column for value in (min(column), max(column))]
    fits = not ends or (_INT32[0] <= min(ends) and max(ends) <= _INT32[1])
    width = "i" if fits else "q"
    header = {
        "version": _VERSION,
        "names": list(instance.names),
        "counts": [len(instance.region_set(name)) for name in instance.names],
        "width": width,
        "word_index": payload,
    }
    body = json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n"
    body += b"".join(_pack(width, column) for column in columns)
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return _MAGIC + digest + b"\n" + body


def decode_instance(data: bytes, source: str = "index data") -> Instance:
    """Rebuild an instance from :func:`encode_instance` output.

    Raises :class:`~repro.errors.CorruptIndexError` for anything that is
    not exactly such output, and a plain
    :class:`~repro.errors.StorageError` for an index of another format
    version.
    """
    if not data.startswith(_MAGIC):
        _reject_foreign(data, source)
    start = len(_MAGIC) + _DIGEST_LINE
    recorded, body = data[len(_MAGIC):start], data[start:]
    digest = hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"
    if recorded != digest:
        raise CorruptIndexError(
            f"{source} failed checksum verification: contents do not match "
            "the recorded sha256 (truncated or corrupted write?)"
        )
    try:
        line, _, columns = body.partition(b"\n")
        header = json.loads(line)
        if header["version"] not in SUPPORTED_VERSIONS:
            raise _unsupported(header["version"])
        return _decode(header, columns)
    except (KeyError, TypeError, ValueError, IndexError, InvalidRegionError,
            HierarchyError) as exc:
        raise CorruptIndexError(f"{source} is malformed: {exc}") from exc


def _reject_foreign(data: bytes, source: str) -> None:
    """Raise for a file without the magic line: a JSON index of an older
    version asks for a re-index, anything else is corrupt."""
    try:
        legacy = json.loads(data)
    except (ValueError, RecursionError):
        legacy = None
    if isinstance(legacy, dict) and "version" in legacy:
        raise _unsupported(legacy["version"])
    raise CorruptIndexError(f"{source} is not a repro index (no magic line)")


def _decode(header: dict[str, Any], body: bytes) -> Instance:
    names, counts = header["names"], header["counts"]
    payload = header["word_index"]
    kind = payload["kind"]
    if kind not in ("text", "label"):
        raise StorageError(f"unknown word index kind {kind!r}")
    if header["width"] not in ("i", "q"):
        raise ValueError(f"unknown column width {header['width']!r}")
    n = sum(counts)
    m = sum(payload["counts"]) if kind == "text" else 0
    ints = array(header["width"])
    if len(body) != ints.itemsize * (3 * n + 2 * m) or len(names) != len(counts):
        raise ValueError(
            f"{len(body)} column bytes do not hold {n} regions and "
            f"{m} occurrences of {len(names)} name(s)"
        )
    ints.frombytes(body)
    if sys.byteorder == "big":  # pragma: no cover - platform-dependent
        ints.byteswap()
    values = ints.tolist()
    lefts, rights, name_ids = values[:n], values[n : 2 * n], values[2 * n : 3 * n]
    if kind == "text":
        lo = 3 * n
        postings: list[tuple[str, RegionSet]] = []
        for token, count in zip(payload["tokens"], payload["counts"], strict=True):
            hi = lo + count
            postings.append(
                (token, RegionSet._from_arrays(values[lo:hi], values[lo + m : hi + m]))
            )
            lo = hi
        word_index: TextWordIndex | LabelWordIndex = TextWordIndex.from_postings(postings)
    else:
        word_index = LabelWordIndex(
            {Region(l, r): patterns for l, r, patterns in payload["labels"]}
        )
    instance = Instance.from_columns(names, lefts, rights, name_ids, word_index)
    if [len(instance.region_set(name)) for name in names] != counts:
        raise ValueError("per-name counts do not match the name-id column")
    return instance


def save_instance(instance: Instance, path: str | Path) -> None:
    """Write an instance to an index file, atomically and crash-safely.

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
    payload = encode_instance(instance)
    directory = target.parent if str(target.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
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
    other format versions, and :class:`~repro.errors.CorruptIndexError`
    when the file exists but fails decoding or checksum verification.
    Load time lands in the process-wide
    ``index_build_seconds{kind=load}`` histogram.
    """
    from time import perf_counter

    from repro.obs.metrics import INDEX_BUILD_SECONDS, global_registry

    started = perf_counter()
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read index from {path}: {exc}") from exc
    raw = _faults.fire("storage.read", raw)
    instance = decode_instance(raw, f"index file {path}")
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
