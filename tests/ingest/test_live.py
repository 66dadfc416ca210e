"""LiveCorpus: the bit-identity oracle, batch validation, compaction,
and checkpoint state round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.region import Region
from repro.engine.storage import decode_instance, encode_instance
from repro.engine.tagged import parse_tagged_text
from repro.errors import (
    DuplicateDocumentError,
    IngestError,
    UnknownDocumentError,
)
from repro.ingest import LiveCorpus
from repro.ingest.live import _Doc
from tests.core.test_columns import object_views

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


def _live() -> LiveCorpus:
    return LiveCorpus(parse_tagged_text(BASE).instance, BASE)


def _assert_bit_identical(live: LiveCorpus) -> None:
    """The invariant everything hangs on: the incrementally assembled
    instance equals a full re-parse of the combined text — its index
    bytes, and the forest's parent column, which the bytes do not carry
    and assembly rebases rather than sweeps."""
    oracle = live.oracle_instance()
    assert encode_instance(live.instance) == encode_instance(oracle)
    assert live.instance.forest()._parent_pos == oracle.forest()._parent_pos


class TestBitIdentity:
    def test_append_fast_path(self):
        live = _live()
        live.apply([_append("a", "prophecy"), _append("b", "dagger")])
        live.apply([_append("c", "ghost")])
        assert live.document_count == 3
        assert live.segment_count == 2
        _assert_bit_identical(live)

    def test_update_reassembles(self):
        live = _live()
        live.apply([_append("a", "prophecy"), _append("b", "dagger")])
        live.apply([{"op": "update", "id": "a", "text": _doc("storm")}])
        # The update tombstones the old entry and re-appends at the end.
        assert live.document_ids == ["b", "a"]
        assert live.tombstone_count == 1
        _assert_bit_identical(live)

    def test_delete_reassembles(self):
        live = _live()
        live.apply([_append("a", "prophecy"), _append("b", "dagger")])
        live.apply([{"op": "delete", "id": "a"}])
        assert live.document_ids == ["b"]
        assert live.tombstone_count == 1
        _assert_bit_identical(live)

    def test_baseless_corpus(self):
        live = LiveCorpus()
        live.apply([_append("a", "prophecy")])
        live.apply([{"op": "update", "id": "a", "text": _doc("storm")}])
        _assert_bit_identical(live)

    def test_empty_base_text_puts_the_first_document_after_its_newline(self):
        # The combined text of an empty base and one document is "\n"
        # plus the document: the newline separates parts whenever any
        # part, even an empty one, precedes.
        live = LiveCorpus(parse_tagged_text("").instance, "")
        live.apply([_append("a", "prophecy")])
        assert live.instance.region_set("document").pairs()[0][0] == 1
        _assert_bit_identical(live)
        live.apply(
            [
                _append("b", "dagger"),
                {"op": "update", "id": "a", "text": _doc("storm")},
            ]
        )
        _assert_bit_identical(live)
        live.apply([{"op": "delete", "id": "b"}])
        _assert_bit_identical(live)

    def test_documents_lists_survivors_in_layout_order(self):
        live = _live()
        live.apply([_append("a", "prophecy"), _append("b", "dagger")])
        live.apply([_append("c", "ghost")])
        live.apply([{"op": "delete", "id": "b"}])
        assert live.documents() == [
            ("a", _doc("prophecy")),
            ("c", _doc("ghost")),
        ]

    def test_combined_text_matches_layout(self):
        live = _live()
        live.apply([_append("a", "prophecy")])
        assert live.combined_text() == (
            BASE + "\n<document>\n" + _doc("prophecy") + "\n</document>"
        )


def _holds_regions_or_tokens(value) -> bool:
    """Whether ``value`` is a Region, a token tuple, or a list or dict
    of them."""
    if isinstance(value, dict):
        value = list(value.values())
    items = value if isinstance(value, list) else [value]
    return any(isinstance(item, (Region, tuple)) for item in items)


class TestColumnAssembly:
    """A commit concatenates shifted columns onto the untouched base."""

    def test_a_mixed_commit_builds_no_region_and_shares_the_base(self):
        # The base as a loader hands it over: columns, no Region view.
        base = decode_instance(encode_instance(parse_tagged_text(BASE).instance))
        live = LiveCorpus(base, BASE)
        live.apply([_append("a", "prophecy"), _append("b", "dagger")])
        live.apply(
            [
                _append("c", "ghost"),
                {"op": "update", "id": "a", "text": _doc("storm")},
                {"op": "delete", "id": "b"},
            ]
        )
        assembled = live.instance
        assert all(view is None for view in object_views(assembled))
        used = {
            token
            for _, text in live.documents()
            for token in parse_tagged_text(text).instance.word_index.vocabulary
        }
        untouched = [t for t in base.word_index.vocabulary if t not in used]
        assert untouched
        for token in untouched:
            assert (
                assembled.word_index._postings[token]
                is base.word_index._postings[token]
            )
        docs = [doc for segment in live._segments for doc in segment.docs]
        assert len(docs) == 4  # a tombstone among them
        for doc in docs:
            for slot in _Doc.__slots__:
                value = getattr(doc, slot)
                assert not _holds_regions_or_tokens(value), slot
                if isinstance(value, Instance):
                    assert all(view is None for view in object_views(value))
        for name, value in vars(live).items():
            assert not _holds_regions_or_tokens(value), name
        _assert_bit_identical(live)


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(IngestError):
            _live().prepare([])

    def test_non_object_op_rejected(self):
        with pytest.raises(IngestError):
            _live().prepare(["append"])

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(IngestError):
            _live().prepare([{"op": "upsert", "id": "a", "text": _doc("x")}])

    def test_missing_id_rejected(self):
        with pytest.raises(IngestError):
            _live().prepare([{"op": "append", "text": _doc("x")}])

    def test_duplicate_append_rejected(self):
        live = _live()
        live.apply([_append("a", "prophecy")])
        with pytest.raises(DuplicateDocumentError):
            live.prepare([_append("a", "again")])

    def test_same_id_twice_in_one_batch_rejected(self):
        with pytest.raises(DuplicateDocumentError):
            _live().prepare([_append("a", "x"), _append("a", "y")])

    def test_update_unknown_document_rejected(self):
        with pytest.raises(UnknownDocumentError):
            _live().prepare([{"op": "update", "id": "nope", "text": _doc("x")}])

    def test_delete_unknown_document_rejected(self):
        with pytest.raises(UnknownDocumentError):
            _live().prepare([{"op": "delete", "id": "nope"}])

    def test_reserved_document_tag_rejected(self):
        with pytest.raises(IngestError):
            _live().prepare(
                [{"op": "append", "id": "a", "text": "<document>x</document>"}]
            )

    def test_unparsable_text_rejected(self):
        with pytest.raises(IngestError):
            _live().prepare(
                [{"op": "append", "id": "a", "text": "<speech>unclosed"}]
            )

    def test_empty_text_rejected(self):
        with pytest.raises(IngestError):
            _live().prepare([{"op": "append", "id": "a", "text": "  "}])

    def test_batch_is_all_or_nothing(self):
        # A batch that fails validation mid-way leaves no trace: prepare
        # never mutates, and the failed commit never happens.
        live = _live()
        live.apply([_append("a", "prophecy")])
        before = encode_instance(live.instance)
        with pytest.raises(UnknownDocumentError):
            live.prepare([_append("b", "dagger"), {"op": "delete", "id": "x"}])
        assert live.document_count == 1
        assert live.segment_count == 1
        assert encode_instance(live.instance) == before


class TestCompaction:
    def test_nothing_to_do_returns_none(self):
        live = _live()
        assert live.compact() is None
        live.apply([_append("a", "prophecy")])
        assert live.compact() is None  # one segment, no tombstones

    def test_merges_segments_and_drops_tombstones(self):
        live = _live()
        live.apply([_append("a", "prophecy"), _append("b", "dagger")])
        live.apply([_append("c", "ghost")])
        live.apply([{"op": "delete", "id": "b"}])
        before = encode_instance(live.instance)
        summary = live.compact()
        assert summary == {
            "merged_segments": 2,
            "dropped_tombstones": 1,
            "live_documents": 2,
        }
        assert live.segment_count == 1
        assert live.tombstone_count == 0
        assert live.document_ids == ["a", "c"]
        # Survivors keep their order, so the layout — and every query
        # answer — is unchanged: compaction never bumps the generation.
        assert encode_instance(live.instance) == before
        _assert_bit_identical(live)

    def test_compacting_away_everything_leaves_no_segments(self):
        live = _live()
        live.apply([_append("a", "prophecy")])
        live.apply([{"op": "delete", "id": "a"}])
        summary = live.compact()
        assert summary["live_documents"] == 0
        assert live.segment_count == 0
        assert encode_instance(live.instance) == encode_instance(
            parse_tagged_text(BASE).instance
        )

    def test_small_segment_count(self):
        live = _live()
        live.apply([_append("a", "prophecy")])
        live.apply([_append("b", "dagger"), _append("c", "ghost")])
        assert live.small_segment_count(1) == 1
        assert live.small_segment_count(2) == 2


class TestCheckpointState:
    def test_state_round_trip_is_bit_identical(self):
        live = _live()
        live.apply([_append("a", "prophecy"), _append("b", "dagger")])
        live.apply([{"op": "update", "id": "a", "text": _doc("storm")}])
        live.apply([{"op": "delete", "id": "b"}])
        state = live.state(through_batch=3)
        assert state["through_batch"] == 3
        restored = LiveCorpus.from_state(
            state, parse_tagged_text(BASE).instance, BASE
        )
        assert restored.document_ids == live.document_ids
        assert restored.tombstone_count == 0  # checkpoints fold tombstones
        assert encode_instance(restored.instance) == encode_instance(
            live.instance
        )

    def test_empty_state_round_trip(self):
        live = _live()
        restored = LiveCorpus.from_state(
            live.state(through_batch=0),
            parse_tagged_text(BASE).instance,
            BASE,
        )
        assert restored.document_count == 0
        assert encode_instance(restored.instance) == encode_instance(
            live.instance
        )


class TestBitIdentityProperty:
    """Any sequence of commits and compactions: the live-assembled
    instance encodes to the bytes of a from-scratch parse."""

    @staticmethod
    def _text(tag: str, words: list[str]) -> str:
        # ``<stage>`` arrives only through ingestion, so a commit can
        # introduce a region name and renumber every name id after it.
        return f"<{tag}><line>{' '.join(words)}</line></{tag}>"

    @given(
        st.booleans(),
        st.lists(
            st.tuples(
                st.sampled_from(
                    ("append", "append2", "update", "delete", "mixed", "clear", "compact")
                ),
                st.integers(0, 7),
                st.sampled_from(("speech", "stage")),
                st.lists(st.sampled_from(("love", "night", "sun")), min_size=1, max_size=3),
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_commit_sequence_encodes_like_a_reparse(self, based, steps):
        live = _live() if based else LiveCorpus()
        fresh = 0
        for kind, pick, tag, words in steps:
            ids = live.document_ids
            if kind == "compact":
                live.compact()
            elif kind == "mixed":  # the bench's batch: append, update, delete
                fresh += 1
                batch = [{"op": "append", "id": f"d{fresh}", "text": self._text(tag, words)}]
                if ids:
                    batch.append({"op": "update", "id": ids[pick % len(ids)], "text": self._text(tag, words)})
                if len(ids) > 1:
                    batch.append({"op": "delete", "id": ids[(pick + 1) % len(ids)]})
                live.apply(batch)
            elif kind == "clear":
                if ids:
                    live.apply([{"op": "delete", "id": doc_id} for doc_id in ids])
            elif kind.startswith("append"):
                batch = []
                for _ in range(2 if kind == "append2" else 1):
                    fresh += 1
                    batch.append({"op": "append", "id": f"d{fresh}", "text": self._text(tag, words)})
                live.apply(batch)
            elif ids:
                op = {"op": kind, "id": ids[pick % len(ids)]}
                if kind == "update":
                    op["text"] = self._text(tag, words)
                live.apply([op])
            if live.combined_text():
                _assert_bit_identical(live)
