"""Index persistence round trips and error handling."""

import hashlib
import json

import pytest

from repro.core.instance import Instance
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.engine.storage import (
    SUPPORTED_VERSIONS,
    decode_instance,
    encode_instance,
    load_instance,
    save_instance,
)
from repro.engine.tagged import parse_tagged_text
from repro.errors import CorruptIndexError, StorageError


def split(data):
    """An encoded index as ``(header dict, column bytes)``."""
    _, _, header, body = data.split(b"\n", 3)
    return json.loads(header), body


def sealed(header, body):
    """An index file around ``header`` and ``body`` with a valid checksum,
    so a decoder sees exactly what they hold."""
    payload = json.dumps(header).encode() + b"\n" + body
    return b"repro-index\n" + hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload


class TestRoundTrips:
    def test_label_index_round_trip(self, small_instance, tmp_path):
        path = tmp_path / "index.json"
        save_instance(small_instance, path)
        loaded = load_instance(path)
        assert loaded == small_instance
        assert loaded.matches(Region(2, 4), "x")

    def test_text_index_round_trip(self, tmp_path):
        doc = parse_tagged_text("<a> alpha beta </a> <b> gamma </b>")
        path = tmp_path / "index.json"
        save_instance(doc.instance, path)
        loaded = load_instance(path)
        assert loaded.names == doc.instance.names
        (a,) = loaded.region_set("a")
        assert loaded.matches(a, "alpha")
        assert not loaded.matches(a, "gamma")

    def test_empty_sets_survive(self, tmp_path):
        instance = Instance({"A": RegionSet.of((0, 1)), "B": RegionSet.empty()})
        path = tmp_path / "index.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        assert loaded.names == ("A", "B")
        assert len(loaded.region_set("B")) == 0

    def test_bytes_round_trip_is_canonical(self, small_instance):
        data = encode_instance(small_instance)
        rebuilt = decode_instance(data)
        assert rebuilt == small_instance
        assert encode_instance(rebuilt) == data

    def test_wide_endpoints_widen_the_columns(self):
        instance = Instance({"A": RegionSet.of((0, 2**40), (5, 9))})
        header, body = split(encode_instance(instance))
        assert header["width"] == "q"
        assert len(body) == 8 * 3 * 2
        assert decode_instance(encode_instance(instance)) == instance
        narrow, _ = split(encode_instance(Instance({"A": RegionSet.of((-3, 9))})))
        assert narrow["width"] == "i"


class TestAtomicWrites:
    def test_no_temp_file_left_behind(self, small_instance, tmp_path):
        save_instance(small_instance, tmp_path / "index.json")
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]

    def test_overwrite_replaces_completely(self, small_instance, tmp_path):
        path = tmp_path / "index.json"
        other = Instance({"Z": RegionSet.of((0, 5))})
        save_instance(other, path)
        save_instance(small_instance, path)
        assert load_instance(path) == small_instance

    def test_failed_replace_keeps_old_file_and_cleans_temp(
        self, small_instance, tmp_path, monkeypatch
    ):
        import repro.engine.storage as storage

        path = tmp_path / "index.json"
        old = Instance({"Z": RegionSet.of((0, 5))})
        save_instance(old, path)

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(storage.os, "replace", broken_replace)
        with pytest.raises(OSError):
            save_instance(small_instance, path)
        monkeypatch.undo()
        # The prior index is intact and no *.tmp litter remains.
        assert load_instance(path) == old
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]

    def test_saved_payload_declares_supported_version(
        self, small_instance, tmp_path
    ):
        path = tmp_path / "index.json"
        save_instance(small_instance, path)
        header, _ = split(path.read_bytes())
        assert header["version"] in SUPPORTED_VERSIONS


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_instance(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(StorageError):
            load_instance(path)

    def test_wrong_version(self, small_instance):
        header, body = split(encode_instance(small_instance))
        header["version"] = 99
        with pytest.raises(StorageError, match="version") as excinfo:
            decode_instance(sealed(header, body))
        # The error tells the operator what this build can read.
        assert "re-index" in str(excinfo.value)
        assert "2" in str(excinfo.value)
        assert not isinstance(excinfo.value, CorruptIndexError)

    def test_version_one_json_file_asks_for_a_reindex(self, small_instance, tmp_path):
        # The JSON layout of format version 1 is not read any more, and
        # such a file is not corrupt: the operator re-indexes.
        path = tmp_path / "index.json"
        legacy = {
            "version": 1,
            "names": ["A"],
            "sets": {"A": [[0, 19]]},
            "word_index": {"kind": "label", "labels": []},
        }
        path.write_text(json.dumps(legacy), encoding="utf-8")
        with pytest.raises(StorageError, match="re-index") as excinfo:
            load_instance(path)
        assert not isinstance(excinfo.value, CorruptIndexError)
        assert "version 1" in str(excinfo.value)

    def test_missing_keys(self):
        with pytest.raises(StorageError, match="malformed"):
            decode_instance(sealed({"version": 2}, b""))

    def test_unknown_word_index_kind(self, small_instance):
        header, body = split(encode_instance(small_instance))
        header["word_index"] = {"kind": "mystery"}
        with pytest.raises(StorageError, match="unknown word index"):
            decode_instance(sealed(header, body))

    def test_foreign_word_index_rejected_on_save(self):
        class Weird:
            def matches(self, region, pattern):
                return False

        instance = Instance({"A": RegionSet.of((0, 1))}, Weird())
        with pytest.raises(StorageError, match="cannot serialize"):
            encode_instance(instance)


class TestChecksums:
    def test_saved_payload_carries_checksum(self, small_instance):
        magic, digest, _ = encode_instance(small_instance).split(b"\n", 2)
        assert magic == b"repro-index"
        assert len(digest) == 64  # sha256 hex
        int(digest, 16)

    def test_corrupted_file_raises_corrupt_index_error(
        self, small_instance, tmp_path
    ):
        path = tmp_path / "index.json"
        save_instance(small_instance, path)
        path.write_bytes(path.read_bytes()[:-4])  # silent data loss
        with pytest.raises(CorruptIndexError, match="checksum"):
            load_instance(path)

    def test_corrupt_index_error_is_a_storage_error(self):
        assert issubclass(CorruptIndexError, StorageError)
        assert CorruptIndexError("x").code == "corrupt_index"

    def test_file_without_checksum_is_corrupt(self, small_instance, tmp_path):
        # The checksum is mandatory: there is no unchecked way in.
        path = tmp_path / "index.json"
        magic, _, rest = encode_instance(small_instance).split(b"\n", 2)
        path.write_bytes(magic + b"\n" + rest)
        with pytest.raises(CorruptIndexError, match="checksum"):
            load_instance(path)


class TestQuarantine:
    def test_quarantine_moves_file_aside(self, small_instance, tmp_path):
        from repro.engine.storage import quarantine_index

        path = tmp_path / "index.json"
        save_instance(small_instance, path)
        destination = quarantine_index(path)
        assert destination == tmp_path / "index.json.quarantined"
        assert destination.exists()
        assert not path.exists()

    def test_quarantine_numbers_repeats(self, small_instance, tmp_path):
        from repro.engine.storage import quarantine_index

        path = tmp_path / "index.json"
        save_instance(small_instance, path)
        quarantine_index(path)
        save_instance(small_instance, path)
        second = quarantine_index(path)
        assert second == tmp_path / "index.json.quarantined.1"

    def test_quarantine_of_missing_file_returns_none(self, tmp_path):
        from repro.engine.storage import quarantine_index

        assert quarantine_index(tmp_path / "gone.json") is None


class TestFsync:
    def test_save_fsyncs_file_and_directory(
        self, small_instance, tmp_path, monkeypatch
    ):
        import os

        import repro.engine.storage as storage

        synced = []
        real_fsync = os.fsync

        def tracking_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(storage.os, "fsync", tracking_fsync)
        save_instance(small_instance, tmp_path / "index.json")
        # One fsync for the temp file's contents, one for the directory
        # entry after the rename — both needed for crash safety.
        assert len(synced) == 2
