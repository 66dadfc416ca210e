"""Indexing SGML-like tagged text.

The paper motivates region indexes with marked-up documents ("SGML
documents in general").  This module turns tagged text into a region
index instance:

* every element ``<name …> … </name>`` becomes a region named after its
  tag, spanning from the ``<`` of the opening tag to the ``>`` of the
  closing tag — tags occupy positions, so nesting is always *strict*;
* self-closing elements ``<name/>`` become leaf regions over their tag;
* words outside markup become word-index tokens at their original
  positions (attribute text inside tags is part of the markup and is
  not indexed);
* ``<!-- comments -->`` are skipped entirely.

The result is a :class:`TaggedDocument` bundling the original text, the
instance, and the element tree, ready for querying.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.instance import Instance
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.core.wordindex import TextWordIndex, Token
from repro.errors import ParseError

__all__ = ["TaggedDocument", "parse_tagged_text"]

_TAG_RE = re.compile(
    r"""
    <!--.*?-->                                   # comment
  | </(?P<close>[A-Za-z_][A-Za-z0-9_]*)\s*>      # closing tag
  | <(?P<self>[A-Za-z_][A-Za-z0-9_]*)(?P<sattrs>[^<>]*)/>   # self-closing
  | <(?P<open>[A-Za-z_][A-Za-z0-9_]*)(?P<attrs>[^<>]*)>     # opening tag
    """,
    re.VERBOSE | re.DOTALL,
)

_WORD_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class TaggedDocument:
    """A parsed tagged document: raw text plus its region index."""

    text: str
    instance: Instance

    def extract(self, region: Region) -> str:
        """The raw text a region covers (inclusive endpoints)."""
        return self.text[region.left : region.right + 1]


def parse_tagged_text(text: str) -> TaggedDocument:
    """Parse tagged text into a :class:`TaggedDocument`.

    Raises :class:`~repro.errors.ParseError` on mismatched or unclosed
    tags.
    """
    regions: dict[str, list[Region]] = {}
    tokens: list[Token] = []
    stack: list[tuple[str, int]] = []  # (tag name, position of '<')
    position = 0
    for match in _TAG_RE.finditer(text):
        _collect_words(text, position, match.start(), tokens)
        position = match.end()
        if match.group("close") is not None:
            name = match.group("close")
            if not stack or stack[-1][0] != name:
                raise ParseError(
                    f"unexpected closing tag </{name}>", match.start()
                )
            _, start = stack.pop()
            regions.setdefault(name, []).append(Region(start, match.end() - 1))
        elif match.group("self") is not None:
            name = match.group("self")
            regions.setdefault(name, []).append(
                Region(match.start(), match.end() - 1)
            )
        elif match.group("open") is not None:
            stack.append((match.group("open"), match.start()))
    if stack:
        raise ParseError(f"unclosed tag <{stack[-1][0]}>", stack[-1][1])
    _collect_words(text, position, len(text), tokens)
    instance = Instance(
        {name: RegionSet(rs) for name, rs in sorted(regions.items())},
        TextWordIndex(tokens),
    )
    return TaggedDocument(text, instance)


def _collect_words(text: str, start: int, end: int, out: list[Token]) -> None:
    for match in _WORD_RE.finditer(text, start, end):
        out.append((match.group(), match.start(), match.end() - 1))
