"""Multi-document corpora with a distinguished document unit.

Section 5.2 observes that "traditional systems recognize one
distinguished unit (the document) within the structure of the text".
:class:`Corpus` realizes that: each added text is wrapped in a
``document`` region, the whole collection is indexed as one instance,
and query results can be attributed back to their document.

This also demonstrates the paper's document-scoped queries: with the
document as the unit, ``bi(document, X, Y)`` is exactly the classic
"X before Y in the same document" request.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.engine.session import Engine
from repro.errors import EvaluationError, ParseError
from repro.rig.graph import RegionInclusionGraph

__all__ = ["Corpus", "DOCUMENT_REGION_NAME"]

DOCUMENT_REGION_NAME = "document"


class Corpus:
    """A collection of tagged documents indexed as one instance."""

    def __init__(self, rig: RegionInclusionGraph | None = None):
        self._texts: list[str] = []
        self._names: list[str] = []
        self._rig = rig
        self._engine: Engine | None = None

    def add(self, text: str, name: str | None = None) -> None:
        """Add one tagged document; the index is rebuilt lazily.

        Raises :class:`~repro.errors.ParseError` immediately on
        malformed markup, so a bad document never poisons the corpus.
        """
        if f"<{DOCUMENT_REGION_NAME}" in text:
            raise ParseError(
                f"documents must not use the reserved <{DOCUMENT_REGION_NAME}> tag"
            )
        from repro.engine.tagged import parse_tagged_text

        parse_tagged_text(text)  # validate eagerly
        self._texts.append(text)
        self._names.append(name if name is not None else f"doc{len(self._texts)}")
        self._engine = None

    def __len__(self) -> int:
        return len(self._texts)

    @property
    def document_names(self) -> tuple[str, ...]:
        return tuple(self._names)

    # ------------------------------------------------------------------

    def engine(self) -> Engine:
        """The engine over the combined index (built on demand)."""
        if self._engine is None:
            if not self._texts:
                raise EvaluationError("the corpus has no documents")
            combined = "\n".join(
                f"<{DOCUMENT_REGION_NAME}>\n{text}\n</{DOCUMENT_REGION_NAME}>"
                for text in self._texts
            )
            self._engine = Engine.from_tagged_text(combined, rig=self._rig)
        return self._engine

    def query(self, query: str, optimize_query: bool = False) -> RegionSet:
        return self.engine().query(query, optimize_query=optimize_query)

    def extract(self, region: Region) -> str:
        return self.engine().extract(region)

    # ------------------------------------------------------------------
    # Document attribution.
    # ------------------------------------------------------------------

    def _document_regions(self) -> list[Region]:
        documents = self.engine().instance.region_set(DOCUMENT_REGION_NAME)
        return sorted(documents, key=lambda r: r.left)

    def document_of(self, region: Region) -> str:
        """The name of the document containing ``region``."""
        for index, document in enumerate(self._document_regions()):
            if document == region or document.includes(region):
                return self._names[index]
        raise EvaluationError(f"region {region} is not inside any document")

    def count_by_document(self, regions: RegionSet) -> dict[str, int]:
        """How many result regions fall in each document (zeros included)."""
        counts = {name: 0 for name in self._names}
        for region in regions:
            counts[self.document_of(region)] += 1
        return counts

    def documents_matching(self, query: str) -> Iterator[str]:
        """Names of documents whose unit region the query selects regions in."""
        seen: set[str] = set()
        for region in self.query(query):
            name = self.document_of(region)
            if name not in seen:
                seen.add(name)
                yield name
