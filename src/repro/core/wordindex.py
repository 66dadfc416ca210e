"""Word indexes: the predicate ``W(r, p)`` of Definition 2.1.

Two interchangeable implementations are provided behind the small
:class:`WordIndex` protocol:

* :class:`TextWordIndex` — built from tokenized text; ``W(r, p)`` holds
  when some occurrence of a token matching ``p`` lies (non-strictly)
  inside ``r``.  This is the index a real engine maintains.
* :class:`LabelWordIndex` — an explicit labelling of regions with the
  pattern strings they satisfy.  The theory of Sections 3-5 treats the
  word index abstractly (Def 3.2 condition 4), and the synthetic
  instances used by the counter-example constructions and generators
  need exactly this freedom.

``W`` has exactly these two realisations, and each answers it a region
at a time (:meth:`~WordIndex.matches`) and a set at a time
(:meth:`~WordIndex.select` — what ``σ_p`` compiles to): the text-backed
index as a containment semi-join against the pattern's *match points*
(the entries of the PAT word index, which it also serves as a
:class:`~repro.core.RegionSet` operand), the label index by asking the
predicate per region.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import eq, itemgetter
from typing import Iterable, Mapping, Protocol, runtime_checkable

from repro.core.patterns import Pattern, parse_pattern
from repro.core.region import Region
from repro.core.regionset import RegionSet

__all__ = ["WordIndex", "TextWordIndex", "LabelWordIndex", "Token", "tokenize"]


Token = tuple[str, int, int]
"""A token occurrence: ``(text, left, right)`` with inclusive endpoints."""


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into maximal runs of non-space characters.

    Positions are character offsets; a token occupies the inclusive span of
    its characters.  This is deliberately simple — structured-document
    parsers in :mod:`repro.engine` pre-process markup before tokenizing.
    """
    tokens: list[Token] = []
    start: int | None = None
    for i, ch in enumerate(text):
        if ch.isspace():
            if start is not None:
                tokens.append((text[start:i], start, i - 1))
                start = None
        elif start is None:
            start = i
    if start is not None:
        tokens.append((text[start:], start, len(text) - 1))
    return tokens


@runtime_checkable
class WordIndex(Protocol):
    """The interface the evaluator needs: ``W``, one region and one set
    at a time."""

    def matches(self, region: Region, pattern: str) -> bool:
        """``W(region, pattern)`` — does the region satisfy the pattern?"""
        ...

    def select(self, regions: RegionSet, pattern: str) -> RegionSet:
        """``σ_pattern(regions) = {r ∈ regions : W(r, pattern)}``."""
        ...


#: Merged match-point sets memoized per index (see ``match_points``).
_POINTS_MEMO_CAPACITY = 256


def _posting(occurrences: list[tuple[int, int]]) -> RegionSet:
    pairs = sorted(occurrences)  # a tokenized text arrives sorted: O(n)
    if any(map(eq, pairs, pairs[1:])):  # only hand-built tokens repeat
        pairs = list(dict.fromkeys(pairs))
    return RegionSet._from_arrays([l for l, _ in pairs], [r for _, r in pairs])


def _by_token(tokens: Iterable[Token]) -> dict[str, list[tuple[int, int]]]:
    out: dict[str, list[tuple[int, int]]] = {}
    for text, left, right in tokens:
        out.setdefault(text, []).append((left, right))
    return out


class TextWordIndex:
    """An inverted index over token occurrences in a text.

    Each distinct token's *posting* — its occurrences — is a
    :class:`RegionSet`: endpoint arrays sorted by left endpoint, with the
    set's lazy suffix-minimum table of right endpoints.  ``matches(r, p)``
    asks whether *some* occurrence of a token matching ``p`` lies inside
    ``r``, one ``O(log n)`` probe per matching token; ``select`` answers
    the same question for a whole region set in one pass.
    """

    def __init__(self, tokens: Iterable[Token]):
        self._postings: dict[str, RegionSet] = {
            text: _posting(occs) for text, occs in _by_token(tokens).items()
        }
        self._vocabulary = sorted(self._postings)
        self._pattern_cache: dict[str, Pattern] = {}
        self._points: dict[str, RegionSet] = {}

    @classmethod
    def from_text(cls, text: str) -> "TextWordIndex":
        return cls(tokenize(text))

    @classmethod
    def from_postings(cls, postings: Iterable[tuple[str, RegionSet]]) -> "TextWordIndex":
        """The index over ready postings (as :meth:`postings` returns them
        and an index file holds them)."""
        out = cls.__new__(cls)
        out._postings = dict(postings)
        out._vocabulary = sorted(out._postings)
        out._pattern_cache = {}
        out._points = {}
        return out

    def postings(self) -> list[tuple[str, RegionSet]]:
        """``(token, posting)`` for every distinct token, in vocabulary order."""
        return [(text, self._postings[text]) for text in self._vocabulary]

    def end(self) -> int:
        """One past the last occurrence's right endpoint (0 when empty).
        A token's occurrences are disjoint, so its posting's last one
        ends last."""
        return 1 + max(
            (p._rights[-1] for p in self._postings.values() if p._rights), default=-1
        )

    # ------------------------------------------------------------------

    @property
    def vocabulary(self) -> list[str]:
        """The distinct tokens, sorted."""
        return list(self._vocabulary)

    def tokens(self) -> list[Token]:
        """Every occurrence, in ``(left, right, text)`` order — what the
        index was built from, canonically."""
        out = [
            (text, left, right)
            for text, posting in self._postings.items()
            for left, right in zip(posting._lefts, posting._rights)
        ]
        out.sort(key=itemgetter(1, 2, 0))
        return out

    def _parsed(self, pattern: str) -> Pattern:
        parsed = self._pattern_cache.get(pattern)
        if parsed is None:
            parsed = parse_pattern(pattern)
            self._pattern_cache[pattern] = parsed
        return parsed

    def _matching_tokens(self, pattern: str) -> list[str]:
        parsed = self._parsed(pattern)
        # Prefix patterns can use the sorted vocabulary directly.
        from repro.core.patterns import LiteralPattern, PrefixPattern

        if isinstance(parsed, LiteralPattern):
            return [pattern] if pattern in self._postings else []
        if isinstance(parsed, PrefixPattern):
            lo = bisect_left(self._vocabulary, parsed.prefix)
            hi = bisect_left(self._vocabulary, parsed.prefix + "￿")
            return self._vocabulary[lo:hi]
        return [t for t in self._vocabulary if parsed.matches_token(t)]

    def match_points(self, pattern: str) -> RegionSet:
        """All occurrence regions of tokens matching ``pattern``.

        These are the PAT *match points* — usable as an ordinary region
        set operand (e.g. for proximity queries with ``<`` and ``>``).
        A pattern matching one token is served by that token's posting
        itself (no copy), one matching several by their merged arrays;
        either is memoized on this (immutable) index, at most
        ``_POINTS_MEMO_CAPACITY`` patterns.  The memo takes no lock: each
        step is one atomic dict operation and a set is a pure function of
        its pattern, so threads racing on a miss only build it twice.
        """
        points = self._points.get(pattern)
        if points is None:
            postings = [self._postings[t] for t in self._matching_tokens(pattern)]
            if len(postings) == 1:
                points = postings[0]
            else:
                points = _posting(
                    [p for s in postings for p in zip(s._lefts, s._rights)]
                )
            if len(self._points) >= _POINTS_MEMO_CAPACITY:
                self._points.clear()
            self._points[pattern] = points
        return points

    def matches(self, region: Region, pattern: str) -> bool:
        """``W(region, pattern)``: an occurrence lies inside ``region``."""
        for token in self._matching_tokens(pattern):
            posting = self._postings[token]
            # The earliest-ending occurrence starting at or after left(r).
            i = bisect_left(posting._lefts, region.left)
            if posting._ensure_suffix_min()[i] <= region.right:
                return True
        return False

    def select(self, regions: RegionSet, pattern: str) -> RegionSet:
        """``σ_pattern``: the containment semi-join of ``regions``
        against the pattern's sorted match points."""
        return regions.covering(self.match_points(pattern))

    def extended(self, pieces: Iterable[tuple["TextWordIndex", int]]) -> "TextWordIndex":
        """A new index with each ``(piece, offset)`` pair's postings,
        shifted by ``offset``, appended *after* every existing occurrence.

        This is the assembly step of live ingestion: a document is
        indexed once in its own coordinates, and placing it past the end
        of the corpus shifts its postings by one offset.  A touched
        token's columns grow by concatenating shifted int lists onto the
        old ones; untouched tokens share their postings with ``self`` (the
        old generation is never mutated).  Cost is ``O(piece occurrences
        + touched postings)``, with no token tuple built.  An occurrence
        that would not sort after the token's existing ones raises
        :class:`ValueError`.
        """
        grown: dict[str, list[tuple[RegionSet, int]]] = {}
        for piece, offset in pieces:
            for text, posting in piece._postings.items():
                parts = grown.get(text)
                if parts is None:
                    parts = grown[text] = []
                parts.append((posting, offset))
        if not grown:
            return self
        postings = dict(self._postings)
        for text, parts in grown.items():
            existing = postings.get(text, RegionSet.empty())
            last_left = existing._lefts[-1] if existing else None
            last_right = existing._rights[-1] if existing else None
            for posting, offset in parts:
                if last_left is not None and (
                    posting._lefts[0] + offset <= last_left
                    or min(posting._rights) + offset < last_right
                ):
                    raise ValueError(
                        f"extended() occurrence of {text!r} at "
                        f"{posting._lefts[0] + offset} is not after the "
                        "existing occurrences"
                    )
                last_left = posting._lefts[-1] + offset
                last_right = posting._rights[-1] + offset
            postings[text] = RegionSet._from_arrays(
                existing._lefts + [l + o for p, o in parts for l in p._lefts],
                existing._rights + [r + o for p, o in parts for r in p._rights],
            )
        fresh = [text for text in grown if text not in self._postings]
        out = TextWordIndex.__new__(TextWordIndex)
        out._postings = postings
        out._vocabulary = sorted(self._vocabulary + fresh) if fresh else self._vocabulary
        out._pattern_cache = {}
        out._points = {}
        return out


class LabelWordIndex:
    """An abstract word index: an explicit region → pattern-set labelling.

    This realizes the paper's view of ``W`` as an arbitrary boolean
    predicate over (region, pattern) pairs.  Regions absent from the
    mapping satisfy no pattern.
    """

    def __init__(self, labels: Mapping[Region, Iterable[str]] | None = None):
        self._labels: dict[Region, frozenset[str]] = {}
        if labels:
            for region, patterns in labels.items():
                self._labels[region] = frozenset(patterns)

    def matches(self, region: Region, pattern: str) -> bool:
        return pattern in self._labels.get(region, frozenset())

    def select(self, regions: RegionSet, pattern: str) -> RegionSet:
        """``σ_pattern`` under the abstract predicate: ask it per region."""
        return regions.select(lambda r: self.matches(r, pattern))

    def labels_of(self, region: Region) -> frozenset[str]:
        return self._labels.get(region, frozenset())

    def with_label(self, region: Region, pattern: str) -> "LabelWordIndex":
        """A copy with ``pattern`` added to ``region``'s label set."""
        labels = dict(self._labels)
        labels[region] = labels.get(region, frozenset()) | {pattern}
        return LabelWordIndex(labels)

    def restricted_to(self, regions: Iterable[Region]) -> "LabelWordIndex":
        """A copy keeping only the labels of the given regions."""
        keep = set(regions)
        return LabelWordIndex(
            {r: pats for r, pats in self._labels.items() if r in keep}
        )

    def renamed(self, mapping: Mapping[Region, Region]) -> "LabelWordIndex":
        """A copy with regions translated through ``mapping``."""
        return LabelWordIndex(
            {mapping.get(r, r): pats for r, pats in self._labels.items()}
        )

    def items(self) -> list[tuple[Region, frozenset[str]]]:
        return sorted(self._labels.items(), key=lambda kv: kv[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelWordIndex):
            return NotImplemented
        mine = {r: p for r, p in self._labels.items() if p}
        theirs = {r: p for r, p in other._labels.items() if p}
        return mine == theirs

    def __hash__(self) -> int:
        return hash(frozenset((r, p) for r, p in self._labels.items() if p))
