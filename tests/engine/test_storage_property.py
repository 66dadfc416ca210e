"""Property-based storage round trips, and corrupt files failing loudly."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.evaluator import evaluate
from repro.engine.storage import decode_instance, encode_instance
from repro.core.wordindex import TextWordIndex
from repro.errors import CorruptIndexError, StorageError
from repro.workloads.generators import random_text_instance
from tests.conftest import hierarchical_instances
from tests.engine.test_storage import sealed, split

text_instances = st.integers(0, 2**32).map(lambda seed: random_text_instance(random.Random(seed)))
label_instances = hierarchical_instances(patterns=("p", "q"))
instances = st.one_of(text_instances, label_instances)


class TestRoundTripProperties:
    @given(label_instances)
    @settings(max_examples=80, deadline=None)
    def test_label_instances_round_trip_exactly(self, instance):
        data = encode_instance(instance)
        rebuilt = decode_instance(data)
        assert rebuilt == instance
        assert rebuilt.names == instance.names
        assert encode_instance(rebuilt) == data
        for region in instance.all_regions():
            for pattern in ("p", "q"):
                assert rebuilt.matches(region, pattern) == instance.matches(
                    region, pattern
                )

    @given(hierarchical_instances())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_preserves_query_results(self, instance):
        rebuilt = decode_instance(encode_instance(instance))
        for query in ("R0 containing R1", "R0 dcontaining R1", "bi(R0, R1, R2)"):
            assert evaluate(query, rebuilt) == evaluate(query, instance)

    @given(text_instances)
    @settings(max_examples=50, deadline=None)
    def test_text_instances_round_trip_exactly(self, instance):
        data = encode_instance(instance)
        rebuilt = decode_instance(data)
        assert encode_instance(rebuilt) == data
        assert rebuilt.word_index.tokens() == instance.word_index.tokens()
        assert rebuilt.match_points("lo*") == instance.match_points("lo*")
        for query in ('line within speech', 'speech containing "lo*"', 'line @ "love"'):
            assert evaluate(query, rebuilt) == evaluate(query, instance)


class TestCorruptFiles:
    """Any damage raises :class:`CorruptIndexError` — never a different
    instance, never another exception type."""

    @given(instances, st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_byte_flip_is_corrupt(self, instance, data):
        raw = bytearray(encode_instance(instance))
        position = data.draw(st.integers(0, len(raw) - 1))
        raw[position] ^= data.draw(st.integers(1, 255))
        with pytest.raises(CorruptIndexError):
            decode_instance(bytes(raw))

    @given(instances, st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_truncation_is_corrupt(self, instance, data):
        raw = encode_instance(instance)
        keep = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(CorruptIndexError):
            decode_instance(raw[:keep])

    @given(instances, st.binary(min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_trailing_bytes_are_corrupt(self, instance, tail):
        raw = encode_instance(instance)
        with pytest.raises(CorruptIndexError, match="checksum"):
            decode_instance(raw + tail)
        # Even re-sealed, the columns no longer have their lengths.
        header, body = split(raw)
        with pytest.raises(CorruptIndexError, match="column bytes"):
            decode_instance(sealed(header, body + tail))

    @given(text_instances)
    @settings(max_examples=30, deadline=None)
    def test_column_length_mismatches_are_corrupt(self, instance):
        header, body = split(encode_instance(instance))
        shorter = json.loads(json.dumps(header))
        shorter["counts"][0] += 1
        with pytest.raises(CorruptIndexError, match="column bytes"):
            decode_instance(sealed(shorter, body))
        # Moving a region between names keeps the total but not the ids.
        moved = json.loads(json.dumps(header))
        k = next(i for i, c in enumerate(moved["counts"]) if c)
        moved["counts"][k] -= 1
        moved["counts"][(k + 1) % len(moved["counts"])] += 1
        with pytest.raises(CorruptIndexError, match="counts"):
            decode_instance(sealed(moved, body))
        fewer_postings = json.loads(json.dumps(header))
        fewer_postings["word_index"]["counts"][-1] += 1
        with pytest.raises(CorruptIndexError, match="column bytes"):
            decode_instance(sealed(fewer_postings, body))

    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_version_one_json_asks_for_a_reindex(self, instance):
        # The retired JSON layout, as version 1 wrote it.
        legacy = {
            "version": 1,
            "names": list(instance.names),
            "sets": {n: instance.region_set(n).pairs() for n in instance.names},
            "word_index": {"kind": "text", "tokens": instance.word_index.tokens()}
            if isinstance(instance.word_index, TextWordIndex)
            else {"kind": "label", "labels": []},
        }
        with pytest.raises(StorageError, match="re-index") as excinfo:
            decode_instance(json.dumps(legacy).encode())
        assert not isinstance(excinfo.value, CorruptIndexError)

    def test_sealed_columns_that_do_not_nest_are_corrupt(self):
        # A well-formed, correctly checksummed file whose universe is not
        # hierarchical is still refused (and names the overlap).
        from repro.core.instance import Instance
        from repro.core.regionset import RegionSet

        overlapping = Instance(
            {"A": RegionSet.of((0, 6)), "B": RegionSet.of((4, 9))}, validate=False
        )
        with pytest.raises(CorruptIndexError, match="overlap"):
            decode_instance(encode_instance(overlapping))
