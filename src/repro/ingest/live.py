"""Live corpora: segment-based document stores over a frozen base.

A :class:`LiveCorpus` holds an (optional) immutable *base* instance —
whatever the corpus was loaded with — plus ingested documents grouped
into **segments**: each committed append batch lands in a fresh segment.
A segment is bookkeeping for compaction; reads see pieces, one per
surviving document (the run-of-trees type the shard partitioner cuts a
read-only instance into).  Deletes and updates never rewrite a
segment; they mark the old entry as a **tombstone** and (for updates)
re-append the new text at the end.

The assembled corpus is defined by its *layout*: the base text, then
every surviving document wrapped in the reserved ``<document>`` tag,
joined by single newlines — byte-for-byte the text
:class:`~repro.engine.corpus.Corpus` would have indexed.  That gives a
very strong oracle: the assembled :class:`~repro.core.Instance` must be
**bit-identical** (via :func:`~repro.engine.storage.encode_instance`)
to parsing the combined text from scratch, and the chaos harness holds
the server to exactly that.

Each document is parsed exactly once, into its own local
:class:`~repro.core.Instance`; placed after the text before it, it is a
new top-level tree whose columns are its own shifted by one offset.  A
commit only places: every surviving document after the untouched base,
as the corpus's **pieces** (:attr:`LiveCorpus.pieces`) — the base, then
each survivor with its local instance and offset.  An engine over the
corpus answers from them piece by piece (:mod:`repro.engine.pieces`),
keeping each piece's answers in a memo that lives on the document — or
on the corpus, for the base — and so outlives every commit the document
survives.

A generation's pieces are one :class:`~repro.engine.pieces.Assembly`,
whose assembled instance is built on first demand, once:
:meth:`Instance.appended` concatenates the survivors' shifted int
columns onto the base's, sharing every untouched name set and posting,
with no sort, no hierarchy sweep and no :class:`~repro.core.Region`.
:attr:`LiveCorpus.instance`, an engine's instance, its whole-corpus runs
and the oracle checks all read that one object; region names, per-name
sizes and nesting depth come from the pieces without it.

Compaction (:meth:`LiveCorpus.compact`) merges all segments into one
and physically drops tombstoned entries.  Because survivors keep their
order, the assembled layout — and therefore every query result — is
unchanged: compaction is pure maintenance and never bumps the corpus
generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.instance import Instance
from repro.core.wordindex import TextWordIndex
from repro.engine.corpus import DOCUMENT_REGION_NAME
from repro.engine.pieces import AnswerMemo, Assembly, Piece
from repro.errors import (
    DuplicateDocumentError,
    IngestError,
    ParseError,
    UnknownDocumentError,
)

__all__ = ["LiveCorpus", "PreparedBatch", "INGEST_OP_KINDS"]

INGEST_OP_KINDS = ("append", "update", "delete")


class _Doc:
    """One ingested document: raw text plus its parse, an instance in
    the document's own coordinates, and the answers read off it."""

    __slots__ = ("doc_id", "text", "wrapped_len", "instance", "memo", "deleted")

    def __init__(self, doc_id: str, text: str):
        from repro.engine.tagged import parse_tagged_text

        self.doc_id = doc_id
        self.text = text
        wrapped = self.wrapped()
        self.wrapped_len = len(wrapped)
        parsed = parse_tagged_text(wrapped).instance
        # Kept as columns: the parse's per-name sets carry Region views.
        self.instance = Instance.from_columns(
            parsed.names, *parsed.columns(), parsed.word_index
        )
        self.memo = AnswerMemo()
        self.deleted = False

    def wrapped(self) -> str:
        return f"<{DOCUMENT_REGION_NAME}>\n{self.text}\n</{DOCUMENT_REGION_NAME}>"

    def retire(self) -> None:
        """Make this entry a tombstone: its parse and its answers go
        with it (engines of older generations keep theirs until they
        are dropped); the id and text stay until compaction."""
        self.deleted = True
        self.instance = None
        self.memo = None


@dataclass
class _Segment:
    """A contiguous run of ingested documents (one per append batch)."""

    docs: list[_Doc] = field(default_factory=list)

    def live_count(self) -> int:
        return sum(1 for doc in self.docs if not doc.deleted)


@dataclass
class PreparedBatch:
    """A validated, parsed batch ready to commit (no state mutated yet)."""

    ops: list[dict[str, Any]]
    docs: dict[str, _Doc]  # parsed append/update payloads by id


class LiveCorpus:
    """The mutable document overlay of one ingest-enabled corpus.

    Not thread-safe by itself — the service serializes writers with a
    per-corpus lock; readers only ever see one generation's
    :class:`~repro.engine.pieces.Assembly` (:attr:`assembly`), whose
    pieces never change and whose instance is built under its own lock.
    """

    def __init__(
        self,
        base_instance: Instance | None = None,
        base_text: str | None = None,
    ):
        self._base_text = base_text
        #: The length of the text before the first document (``None``:
        #: no base, so no separating newline either).
        self._base_end: int | None = None
        if base_instance is None:
            self._base = Instance({}, TextWordIndex(()))
        else:
            word_index = base_instance.word_index
            if not isinstance(word_index, TextWordIndex):
                raise IngestError(
                    "live ingestion needs a text-backed word index; got "
                    f"{type(word_index).__name__}"
                )
            self._base = base_instance
            if base_text is not None:
                self._base_end = len(base_text)
            else:
                self._base_end = max(
                    base_instance._rights_max() + 1, word_index.end()
                )
        self._segments: list[_Segment] = []
        self._index: dict[str, _Doc] = {}
        self._tombstones = 0
        #: The base piece alone (none without a base): every placement
        #: starts from it.
        self._base_pieces: list[Piece] = []
        if self._base_end is not None:
            self._base_pieces.append(
                Piece(self._base, 0, self._base_end, 0, AnswerMemo())
            )
        self._assembly = Assembly(self._base, self._base_pieces, ())

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def assembly(self) -> Assembly:
        """The current generation: its pieces and assembled instance."""
        return self._assembly

    @property
    def instance(self) -> Instance:
        """The current assembled instance (the base when unmutated),
        built on first demand."""
        return self._assembly.instance()

    @property
    def pieces(self) -> tuple[Piece, ...]:
        """The assembled instance as pieces: the base, then every
        surviving document, in order."""
        return self._assembly.pieces

    @property
    def document_count(self) -> int:
        """Live ingested documents (the base is not counted)."""
        return len(self._index)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def tombstone_count(self) -> int:
        return self._tombstones

    @property
    def document_ids(self) -> list[str]:
        return [doc.doc_id for doc in self._survivors()]

    def documents(self) -> list[tuple[str, str]]:
        """``(id, text)`` for every surviving ingested document, in the
        order they occupy the assembled instance (segment order)."""
        return [(doc.doc_id, doc.text) for doc in self._survivors()]

    def combined_text(self) -> str | None:
        """The full corpus text the assembled instance indexes, or
        ``None`` when the base engine carried no raw text."""
        if self._base_end is not None and self._base_text is None:
            return None
        parts = [] if self._base_text is None else [self._base_text]
        parts += [doc.wrapped() for doc in self._survivors()]
        return "\n".join(parts)

    def oracle_instance(self) -> Instance | None:
        """The rebuilt-from-scratch instance: a full re-parse of the
        combined text.  The bit-identity oracle of the chaos harness and
        the recovery tests; ``None`` without raw base text."""
        from repro.engine.tagged import parse_tagged_text

        text = self.combined_text()
        if text is None:
            return None
        return parse_tagged_text(text).instance

    # ------------------------------------------------------------------
    # Validation and application.
    # ------------------------------------------------------------------

    def prepare(self, ops: Any) -> PreparedBatch:
        """Validate a batch against the current state and parse its
        payloads; raises the :class:`~repro.errors.IngestError` family
        without mutating anything (batches are all-or-nothing)."""
        if not isinstance(ops, list) or not ops:
            raise IngestError(
                "an ingest batch must be a non-empty list of operations"
            )
        live = set(self._index)
        seen: set[str] = set()
        docs: dict[str, _Doc] = {}
        for position, op in enumerate(ops):
            where = f"operation {position}"
            if not isinstance(op, dict):
                raise IngestError(f"{where} is not an object")
            kind = op.get("op")
            if kind not in INGEST_OP_KINDS:
                raise IngestError(
                    f"{where} has unknown op {kind!r} "
                    f"(expected one of {', '.join(INGEST_OP_KINDS)})"
                )
            doc_id = op.get("id")
            if not isinstance(doc_id, str) or not doc_id:
                raise IngestError(f"{where} needs a non-empty string id")
            if doc_id in seen:
                raise DuplicateDocumentError(
                    f"document {doc_id!r} appears twice in one batch"
                )
            seen.add(doc_id)
            if kind == "append":
                if doc_id in live:
                    raise DuplicateDocumentError(
                        f"document {doc_id!r} already exists"
                    )
                docs[doc_id] = self._parse_payload(op, where)
                live.add(doc_id)
            elif kind == "update":
                if doc_id not in live:
                    raise UnknownDocumentError(
                        f"document {doc_id!r} does not exist"
                    )
                docs[doc_id] = self._parse_payload(op, where)
            else:  # delete
                if doc_id not in live:
                    raise UnknownDocumentError(
                        f"document {doc_id!r} does not exist"
                    )
                live.discard(doc_id)
        return PreparedBatch(ops=ops, docs=docs)

    def _parse_payload(self, op: dict[str, Any], where: str) -> _Doc:
        text = op.get("text")
        if not isinstance(text, str) or not text.strip():
            raise IngestError(f"{where} needs a non-empty string text")
        if f"<{DOCUMENT_REGION_NAME}" in text:
            raise IngestError(
                f"{where} uses the reserved <{DOCUMENT_REGION_NAME}> tag"
            )
        try:
            return _Doc(op["id"], text)
        except ParseError as exc:
            raise IngestError(f"{where} does not parse: {exc}") from exc

    def commit(self, prepared: PreparedBatch) -> Assembly:
        """Apply a prepared batch and return the new generation.

        Every survivor is placed after the untouched base (a delete or
        update moves every later document); nothing is parsed or
        assembled here — the generation's instance is built when first
        asked for.
        """
        new_segment = _Segment()
        for op in prepared.ops:
            kind, doc_id = op["op"], op["id"]
            if kind in ("update", "delete"):
                self._index.pop(doc_id).retire()
                self._tombstones += 1
            if kind in ("append", "update"):
                doc = prepared.docs[doc_id]
                new_segment.docs.append(doc)
                self._index[doc_id] = doc
        if new_segment.docs:
            self._segments.append(new_segment)
        self._assembly = Assembly(self._base, self._base_pieces, self._place())
        return self._assembly

    def apply(self, ops: Any) -> Assembly:
        """:meth:`prepare` + :meth:`commit` (the WAL-replay path)."""
        return self.commit(self.prepare(ops))

    # ------------------------------------------------------------------
    # Placement.
    # ------------------------------------------------------------------

    def _survivors(self) -> list[_Doc]:
        """The surviving documents, in the order they are assembled."""
        return [
            doc
            for segment in self._segments
            for doc in segment.docs
            if not doc.deleted
        ]

    def _place(self) -> tuple[Piece, ...]:
        """Every survivor as a piece placed after the base, each after a
        newline whenever any text precedes it."""
        pieces = []
        end = self._base_end  # None: no text at all
        for doc in self._survivors():
            offset = 0 if end is None else end + 1
            pieces.append(
                Piece(doc.instance, offset, doc.wrapped_len, offset, doc.memo)
            )
            end = offset + doc.wrapped_len
        return tuple(pieces)

    # ------------------------------------------------------------------
    # Compaction and checkpointing.
    # ------------------------------------------------------------------

    def compact(self) -> dict[str, int] | None:
        """Merge every segment into one and drop tombstoned entries.

        Survivors keep their order, so the assembled layout — and every
        query answer — is unchanged; no generation bump is needed.
        Returns a summary, or ``None`` when there was nothing to do.
        """
        if len(self._segments) <= 1 and self._tombstones == 0:
            return None
        merged = _Segment(self._survivors())
        summary = {
            "merged_segments": len(self._segments),
            "dropped_tombstones": self._tombstones,
            "live_documents": len(merged.docs),
        }
        self._segments = [merged] if merged.docs else []
        self._tombstones = 0
        return summary

    def small_segment_count(self, max_docs: int) -> int:
        """Segments at or below the size tier (the compaction trigger)."""
        return sum(
            1 for segment in self._segments if segment.live_count() <= max_docs
        )

    def state(self, through_batch: int) -> dict[str, Any]:
        """A checkpoint of the live overlay for the WAL snapshot file."""
        return {
            "through_batch": through_batch,
            "docs": [[doc.doc_id, doc.text] for doc in self._survivors()],
        }

    @classmethod
    def from_state(
        cls,
        state: dict[str, Any],
        base_instance: Instance | None = None,
        base_text: str | None = None,
    ) -> "LiveCorpus":
        """Rebuild the overlay from a checkpoint (one merged segment)."""
        live = cls(base_instance, base_text)
        docs = state.get("docs") or []
        if docs:
            live.apply(
                [
                    {"op": "append", "id": doc_id, "text": text}
                    for doc_id, text in docs
                ]
            )
        return live
